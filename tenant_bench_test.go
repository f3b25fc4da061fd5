// Tenant-routing overhead benchmark: the same binary wire frames pushed
// through the registry's /t/default/reports route and through the legacy
// unprefixed alias, versus a dedicated single-tenant server. The routed
// number must stay within 10% of the legacy number — the multi-tenant
// control plane is a routing layer, not a tax. Gated by `make bench-check`
// against BENCH_ingest.json.
package mcim_test

import (
	"net/http/httptest"
	"testing"

	"repro/internal/collect"
	"repro/internal/tenant"
)

// benchRegistry starts a memory-only registry hosting one tenant named
// "default" at the benchmark shape.
func benchRegistry(b *testing.B) (*tenant.Registry, *httptest.Server) {
	b.Helper()
	reg, err := tenant.New(tenant.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { reg.Close() })
	sp := tenant.Spec{
		Name: tenant.DefaultTenant,
		Freq: &tenant.FreqSpec{Protocol: "ptscp", Classes: benchClasses, Items: benchItems, Epsilon: benchEps, Split: 0.5},
	}
	if err := reg.Create(sp); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	b.Cleanup(ts.Close)
	return reg, ts
}

// BenchmarkTenantRoutedIngest measures binary-wire batch ingestion through
// the tenant registry. Sub-benchmarks:
//
//	legacy:  a dedicated collect.Server, no registry in the path — the
//	         baseline BenchmarkCollectIngest/batched-binary shape.
//	aliased: the registry's unprefixed route, which resolves the default
//	         tenant (one map lookup + one mux dispatch extra).
//	routed:  the registry's /t/default/reports route (lookup + StripPrefix).
func BenchmarkTenantRoutedIngest(b *testing.B) {
	bodies := benchWireBinaryBodies(b, 16, benchBatchSize)
	b.Run("legacy", func(b *testing.B) {
		srv, ts := benchServer(b)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, srv, b.N*benchBatchSize)
	})
	b.Run("aliased", func(b *testing.B) {
		reg, ts := benchRegistry(b)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, reg.Tenant(tenant.DefaultTenant), b.N*benchBatchSize)
	})
	b.Run("routed", func(b *testing.B) {
		reg, ts := benchRegistry(b)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPostType(b, hc, ts.URL+"/t/default/reports", collect.BinaryContentType, bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, reg.Tenant(tenant.DefaultTenant), b.N*benchBatchSize)
	})
}
