package tenant

import (
	"testing"
	"unicode/utf8"

	"repro/internal/wal"
)

// FuzzTenantSpec hammers the admin-facing spec parser: arbitrary bytes must
// either be rejected or produce a spec that round-trips through Validate
// without panicking — the parser is the trust boundary of the admin API.
func FuzzTenantSpec(f *testing.F) {
	f.Add([]byte(`{"name":"acme","freq":{"protocol":"ptscp","classes":3,"items":16,"epsilon":2,"split":0.5}}`))
	f.Add([]byte(`{"name":"m","mean":{"protocol":"hecmean","classes":2,"epsilon":1}}`))
	f.Add([]byte(`{"name":"k","topk":{"max_sessions":4},"token":"s3cret","rate_limit":10,"rate_burst":2}`))
	f.Add([]byte(`{"name":"x","freq":{"protocol":"pts+a","classes":1,"items":2,"epsilon":0.1,"split":0.9},"max_body_bytes":1024}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"name":"../evil","freq":{"protocol":"hec","classes":2,"items":4,"epsilon":2}}`))
	f.Add([]byte(`{"name":"dup"} {"name":"dup"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Whatever parsed must validate or be rejected — never panic — and
		// a valid spec must have a name safe for both routing and disk.
		if err := sp.Validate(); err != nil {
			return
		}
		if !ValidName(sp.Name) {
			t.Fatalf("validated spec carries illegal name %q", sp.Name)
		}
		if !utf8.ValidString(sp.Name) {
			t.Fatalf("validated spec name %q is not UTF-8", sp.Name)
		}
		// A validated spec must build a memory-only server.
		srv, err := sp.build("", wal.Options{})
		if err != nil {
			t.Fatalf("validated spec fails to build: %v", err)
		}
		srv.Close()
		// Redaction must strip the token and nothing else.
		if red := sp.Redacted(); red.Token != "" {
			t.Fatal("Redacted leaks the token")
		}
	})
}
