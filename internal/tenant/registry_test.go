package tenant_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/tenant"
	"repro/internal/topk"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// testSpec is a small all-three-tier tenant.
func testSpec(name string) tenant.Spec {
	return tenant.Spec{
		Name: name,
		Freq: &tenant.FreqSpec{Protocol: "ptscp", Classes: 3, Items: 16, Epsilon: 2, Split: 0.5},
		Mean: &tenant.MeanSpec{Protocol: "cpmean", Classes: 3, Epsilon: 2, Split: 0.5},
		TopK: &tenant.TopKSpec{MaxSessions: 4},
	}
}

// newRegistry builds a registry (durable when dir != "") and its HTTP
// server.
func newRegistry(t *testing.T, dir string, opts tenant.Options) (*tenant.Registry, *httptest.Server) {
	t.Helper()
	opts.Dir = dir
	if dir != "" && opts.WAL.Sync == "" {
		// Kill-style crash tests reopen the directory without Close, so
		// every append must be on disk when the handler acks.
		opts.WAL.Sync = wal.SyncAlways
	}
	reg, err := tenant.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ts := httptest.NewServer(reg.Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

// adminDo issues one admin request, returning status and body.
func adminDo(t *testing.T, method, url, adminTok string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if adminTok != "" {
		req.Header.Set("Authorization", "Bearer "+adminTok)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// createTenant creates a tenant over the admin API and fails the test on a
// non-201.
func createTenant(t *testing.T, baseURL, adminTok string, sp tenant.Spec) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	name := sp.Name
	status, resp := adminDo(t, http.MethodPost, baseURL+"/admin/tenants/"+name, adminTok, body)
	if status != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", name, status, resp)
	}
}

// freqPairs is a deterministic skewed population.
func freqPairs(n, classes, items int, seed uint64) []core.Pair {
	r := xrand.New(seed)
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = core.Pair{Class: r.Intn(classes), Item: r.Intn(1 + r.Intn(items))}
	}
	return pairs
}

// fetchJSON decodes one GET response into out, failing on a non-200.
func fetchJSON(t *testing.T, hc *http.Client, url string, out any) {
	t.Helper()
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// driveTopKSession runs one tiny hosted mining session end to end against
// base (a tenant's base URL) and returns the result.
func driveTopKSession(t *testing.T, base string, hc *http.Client, users int) *topk.Result {
	t.Helper()
	sess, err := collect.NewTopKSession(base, hc, topk.SessionParams{
		Framework: "pts", Classes: 2, Items: 8, K: 2, Eps: 2, Users: users, Seed: 11,
		Opt: topk.Baseline(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := freqPairs(users, 2, 8, 5)
	user := 0
	for {
		rd, err := sess.Round()
		if err != nil {
			t.Fatal(err)
		}
		if rd.Done {
			break
		}
		enc, err := topk.NewRoundEncoder(rd.Config)
		if err != nil {
			t.Fatal(err)
		}
		todo := rd.Config.Quota - rd.Received
		reps := make([]topk.RoundReport, todo)
		for i := 0; i < todo; i++ {
			reps[i], err = enc.Encode(pairs[user+i], topk.UserRand(11, user+i))
			if err != nil {
				t.Fatal(err)
			}
		}
		user += todo
		if _, err := sess.PostReports(reps); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTenantLifecycle creates a tenant, ingests into all three tiers,
// deletes it (routes 404), and recreates the same name empty.
func TestTenantLifecycle(t *testing.T) {
	const adminTok = "admin-secret"
	_, ts := newRegistry(t, t.TempDir(), tenant.Options{AdminToken: adminTok})

	sp := testSpec("acme")
	sp.Token = "acme-token"
	createTenant(t, ts.URL, adminTok, sp)

	// Frequency tier through the tenant-aware client.
	fc, err := collect.NewClient(ts.URL, nil, 1, collect.WithTenant("acme", sp.Token))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.SubmitBatch(freqPairs(200, 3, 16, 3)); err != nil {
		t.Fatal(err)
	}

	// Mean tier.
	mc, err := collect.NewMeanClient(ts.URL, nil, 2, collect.WithTenant("acme", sp.Token))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		if err := mc.Buffer(u, mean.Value{Class: u % 3, X: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mc.Flush(); err != nil {
		t.Fatal(err)
	}

	// Top-k tier: run a full tiny session against the tenant's routes.
	tb := collect.TenantBaseURL(ts.URL, "acme")
	bhc := collect.BearerClient(nil, sp.Token)
	driveTopKSession(t, tb, bhc, 40)

	var est collect.WireEstimates
	fetchJSON(t, bhc, tb+"/estimates", &est)
	if est.Reports != 200 {
		t.Fatalf("frequency tier holds %d reports, want 200", est.Reports)
	}

	// Delete: every data route must 404 afterwards.
	if status, body := adminDo(t, http.MethodDelete, ts.URL+"/admin/tenants/acme", adminTok, nil); status != http.StatusOK {
		t.Fatalf("delete: status %d: %s", status, body)
	}
	resp, err := http.Get(tb + "/config")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-delete /config: status %d, want 404", resp.StatusCode)
	}
	if status, _ := adminDo(t, http.MethodDelete, ts.URL+"/admin/tenants/acme", adminTok, nil); status != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", status)
	}

	// Recreate under the same name: a fresh tenant, not the old state.
	createTenant(t, ts.URL, adminTok, sp)
	fetchJSON(t, bhc, tb+"/estimates", &est)
	if est.Reports != 0 {
		t.Fatalf("recreated tenant holds %d reports, want 0", est.Reports)
	}
}

// TestRegistryCrashRecovery kills a registry without Close and reopens the
// directory: the tenant set and every tenant's estimates must come back
// bit-identical.
func TestRegistryCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	reg1, ts1 := newRegistry(t, dir, tenant.Options{})

	spA, spB := testSpec("alpha"), testSpec("beta")
	spB.Freq.Epsilon = 4 // different round: recovery must keep them apart
	createTenant(t, ts1.URL, "", spA)
	createTenant(t, ts1.URL, "", spB)

	for i, name := range []string{"alpha", "beta"} {
		c, err := collect.NewClient(ts1.URL, nil, uint64(10+i), collect.WithTenant(name, ""))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitBatch(freqPairs(150+50*i, 3, 16, uint64(20+i))); err != nil {
			t.Fatal(err)
		}
		mc, err := collect.NewMeanClient(ts1.URL, nil, uint64(30+i), collect.WithTenant(name, ""))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 40; u++ {
			if err := mc.Buffer(u, mean.Value{Class: u % 3, X: -0.5 + float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := mc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string][2]json.RawMessage)
	for _, name := range []string{"alpha", "beta"} {
		tb := collect.TenantBaseURL(ts1.URL, name)
		var fe, me json.RawMessage
		fetchJSON(t, nil, tb+"/estimates", &fe)
		fetchJSON(t, nil, tb+"/mean/estimates", &me)
		want[name] = [2]json.RawMessage{fe, me}
	}

	// Kill-style: the registry is NOT closed; a second registry opens the
	// same directory as a restarted process would.
	ts1.Close()
	reg2, ts2 := newRegistry(t, dir, tenant.Options{})
	if got, wantNames := reg2.Names(), reg1.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("recovered tenant set %v, want %v", got, wantNames)
	}
	for _, name := range []string{"alpha", "beta"} {
		tb := collect.TenantBaseURL(ts2.URL, name)
		var fe, me json.RawMessage
		fetchJSON(t, nil, tb+"/estimates", &fe)
		fetchJSON(t, nil, tb+"/mean/estimates", &me)
		if !bytes.Equal(fe, want[name][0]) {
			t.Fatalf("tenant %s frequency estimates diverged after crash recovery:\n got %s\nwant %s", name, fe, want[name][0])
		}
		if !bytes.Equal(me, want[name][1]) {
			t.Fatalf("tenant %s mean estimates diverged after crash recovery:\n got %s\nwant %s", name, me, want[name][1])
		}
	}
}

// TestTenantRoutedMatchesDedicated feeds the identical report stream to a
// registry tenant and to a dedicated single-tenant server: estimates must
// be bit-identical, so routing adds no semantic difference.
func TestTenantRoutedMatchesDedicated(t *testing.T) {
	proto, err := core.NewProtocol("ptscp", 3, 16, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	enc := proto.Encoder()
	r := xrand.New(77)
	reports := make([]collect.WireReport, 400)
	for i, p := range freqPairs(400, 3, 16, 42) {
		reports[i] = proto.EncodeReport(enc.Encode(p, r))
	}

	dedicated, err := collect.NewServer(proto)
	if err != nil {
		t.Fatal(err)
	}
	ds := httptest.NewServer(dedicated.Handler())
	defer ds.Close()

	_, ts := newRegistry(t, "", tenant.Options{})
	sp := tenant.Spec{Name: "default", Freq: &tenant.FreqSpec{Protocol: "ptscp", Classes: 3, Items: 16, Epsilon: 2, Split: 0.5}}
	createTenant(t, ts.URL, "", sp)

	body, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{ds.URL + "/reports", ts.URL + "/t/default/reports", ts.URL + "/reports"} {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
	}
	// The registry tenant ingested the stream twice (routed + legacy
	// alias); the dedicated server once. Estimates are deterministic in the
	// aggregate, so compare the dedicated server against a twin fed twice.
	twin, err := collect.NewServer(proto)
	if err != nil {
		t.Fatal(err)
	}
	tw := httptest.NewServer(twin.Handler())
	defer tw.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(tw.URL+"/reports", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var fromTenant, fromTwin json.RawMessage
	fetchJSON(t, nil, ts.URL+"/t/default/estimates", &fromTenant)
	fetchJSON(t, nil, tw.URL+"/estimates", &fromTwin)
	if !bytes.Equal(fromTenant, fromTwin) {
		t.Fatalf("tenant-routed estimates diverge from dedicated server:\n got %s\nwant %s", fromTenant, fromTwin)
	}
}

// TestCrossTenantIsolation pins that state cannot leak across tenants whose
// rounds differ: a merge of tenant A's envelope into tenant B (same
// protocol name, different ε) is refused with 409, and the error body names
// the serving tier's fingerprint and protocol (the /merge diagnosability
// contract).
func TestCrossTenantIsolation(t *testing.T) {
	reg, ts := newRegistry(t, "", tenant.Options{})
	spA, spB := testSpec("a"), testSpec("b")
	spB.Freq.Epsilon = 4
	createTenant(t, ts.URL, "", spA)
	createTenant(t, ts.URL, "", spB)

	ca, err := collect.NewClient(ts.URL, nil, 5, collect.WithTenant("a", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.SubmitBatch(freqPairs(100, 3, 16, 9)); err != nil {
		t.Fatal(err)
	}
	env, err := reg.Tenant("a").Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/t/b/merge", collect.StateContentType, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-tenant merge: status %d, want 409: %s", resp.StatusCode, body)
	}
	// Satellite contract: the 409 body itemizes the server's own tiers —
	// fingerprints and protocol names — so the mismatch is diagnosable.
	wantFP := reg.Tenant("b").Protocol().Fingerprint()
	for _, frag := range []string{"matches none", wantFP, "ptscp", "cpmean"} {
		if !strings.Contains(string(body), frag) {
			t.Fatalf("409 body lacks %q:\n%s", frag, body)
		}
	}
	// Same-round tenants DO merge: a's envelope into a twin of a.
	spC := testSpec("c")
	createTenant(t, ts.URL, "", spC)
	resp2, err := http.Post(ts.URL+"/t/c/merge", collect.StateContentType, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("same-round cross-tenant merge: status %d, want 200", resp2.StatusCode)
	}
}

// TestTenantAuth pins the bearer-token gates: tenant data routes and admin
// routes reject missing/wrong tokens with 401 and accept the right one.
func TestTenantAuth(t *testing.T) {
	const adminTok = "root"
	_, ts := newRegistry(t, "", tenant.Options{AdminToken: adminTok})
	sp := testSpec("locked")
	sp.Token = "hunter2"
	createTenant(t, ts.URL, adminTok, sp)

	// Admin without token: 401.
	if status, _ := adminDo(t, http.MethodGet, ts.URL+"/admin/tenants", "", nil); status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated admin list: status %d, want 401", status)
	}
	// Data route without token: 401 with a challenge.
	resp, err := http.Get(collect.TenantBaseURL(ts.URL, "locked") + "/config")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated data route: status %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 lacks WWW-Authenticate challenge")
	}
	// Wrong token: 401. Right token: 200.
	for token, want := range map[string]int{"wrong": http.StatusUnauthorized, "hunter2": http.StatusOK} {
		hc := collect.BearerClient(nil, token)
		resp, err := hc.Get(collect.TenantBaseURL(ts.URL, "locked") + "/config")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("token %q: status %d, want %d", token, resp.StatusCode, want)
		}
	}
	// Listings never echo tokens.
	status, body := adminDo(t, http.MethodGet, ts.URL+"/admin/tenants", adminTok, nil)
	if status != http.StatusOK {
		t.Fatalf("admin list: status %d", status)
	}
	if strings.Contains(body, "hunter2") {
		t.Fatalf("listing leaks the tenant token: %s", body)
	}
}

// TestTenantRateLimit pins the 429 + Retry-After contract on a
// rate-limited tenant.
func TestTenantRateLimit(t *testing.T) {
	_, ts := newRegistry(t, "", tenant.Options{})
	sp := tenant.Spec{
		Name:      "slow",
		Freq:      &tenant.FreqSpec{Protocol: "ptscp", Classes: 2, Items: 8, Epsilon: 2, Split: 0.5},
		RateLimit: 1, RateBurst: 1,
	}
	createTenant(t, ts.URL, "", sp)
	c, err := collect.NewClient(ts.URL, nil, 3, collect.WithTenant("slow", ""), collect.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// First batch drains the bucket far negative; the second must be 429.
	if _, err := c.SubmitBatch(freqPairs(50, 2, 8, 1)); err != nil {
		t.Fatalf("first batch within burst: %v", err)
	}
	_, err = c.SubmitBatch(freqPairs(50, 2, 8, 2))
	if code, ok := collect.StatusCode(err); !ok || code != http.StatusTooManyRequests {
		t.Fatalf("second batch: err %v, want 429", err)
	}
	// The raw 429 response must carry Retry-After so clients can back off.
	proto, err := core.NewProtocol("ptscp", 2, 8, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	enc := proto.Encoder()
	r := xrand.New(9)
	var reports []collect.WireReport
	for _, p := range freqPairs(5, 2, 8, 6) {
		reports = append(reports, proto.EncodeReport(enc.Encode(p, r)))
	}
	body, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/t/slow/reports", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw post against drained bucket: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After header")
	}
}

// TestRegistryRace hammers concurrent create/delete/ingest under -race.
func TestRegistryRace(t *testing.T) {
	reg, ts := newRegistry(t, t.TempDir(), tenant.Options{})
	names := []string{"r0", "r1", "r2", "r3"}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sp := tenant.Spec{Name: name, Freq: &tenant.FreqSpec{Protocol: "ptscp", Classes: 2, Items: 8, Epsilon: 2, Split: 0.5}}
			for i := 0; i < 20; i++ {
				if err := reg.Create(sp); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if err := reg.Delete(name); err != nil {
					t.Errorf("delete %s: %v", name, err)
					return
				}
			}
		}(name)
	}
	// Ingesters race the lifecycle churn: any of 200/404/401/500 is fine —
	// what must not happen is a data race or a wedged registry.
	proto, _ := core.NewProtocol("ptscp", 2, 8, 2, 0.5)
	enc := proto.Encoder()
	r := xrand.New(1)
	var reports []collect.WireReport
	for _, p := range freqPairs(32, 2, 8, 4) {
		reports = append(reports, proto.EncodeReport(enc.Encode(p, r)))
	}
	body, _ := json.Marshal(reports)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				url := fmt.Sprintf("%s/t/%s/reports", ts.URL, names[(w+i)%len(names)])
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
}
