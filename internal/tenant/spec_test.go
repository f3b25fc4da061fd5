package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// removedFieldSpecs are specs as an operator could write them while tenants
// still had a field that has since been removed: "shards" (one aggregate
// per tier replaced the shard set) and "cache" (the estimate cache's
// staleness knobs; the cache is exact-only).
var removedFieldSpecs = []struct{ field, spec string }{
	{"shards", `{"name":"acme","freq":{"protocol":"ptscp","classes":3,"items":16,"epsilon":2,"split":0.5},"shards":4}`},
	{"cache", `{"name":"acme","freq":{"protocol":"ptscp","classes":3,"items":16,"epsilon":2,"split":0.5},"cache":{"max_stale_reports":100,"max_stale_ms":500}}`},
}

// TestSpecRefusesRemovedShardsField: an old spec fails loudly rather than
// silently configuring something else. Neither "shards" nor "cache" is a
// spec field any more, and the parsers' rule that a field that configures
// nothing is an error covers both.
func TestSpecRefusesRemovedShardsField(t *testing.T) {
	for _, c := range removedFieldSpecs {
		want := `unknown field "` + c.field + `"`
		_, err := ParseSpec([]byte(c.spec))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseSpec: %v, want the unknown-field error naming %s", err, c.field)
		}
		_, err = ParseSpecs([]byte("[" + c.spec + "]"))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("ParseSpecs: %v, want the unknown-field error naming %s", err, c.field)
		}
	}
}

// TestRegistryLogCarryingShardsReplays: a registry log written while specs
// carried "shards" or "cache" must still restart — the replay reads its own
// records leniently and ignores the removed block; only the admin-facing
// parsers are strict.
func TestRegistryLogCarryingShardsReplays(t *testing.T) {
	for _, c := range removedFieldSpecs {
		dir := t.TempDir()
		log, err := wal.Open(filepath.Join(dir, "registry"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(append([]byte{recCreate}, c.spec...)); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
		names := r.Names()
		r.Close()
		if len(names) != 1 || names[0] != "acme" {
			t.Fatalf("%s: replayed tenants %v, want [acme]", c.field, names)
		}
	}
}

// TestREADMETenantSpecsParse keeps the README's tenant examples honest:
// every fenced json block in it is a tenant spec (an object) or a -tenants
// file (an array), and each must parse strictly and validate.
func TestREADMETenantSpecsParse(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var blocks int
	lines := strings.Split(string(readme), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.TrimSpace(lines[i]) != "```json" {
			continue
		}
		start := i + 1
		for i++; i < len(lines) && strings.TrimSpace(lines[i]) != "```"; i++ {
		}
		block := strings.Join(lines[start:i], "\n")
		blocks++
		var specs []Spec
		if strings.HasPrefix(strings.TrimSpace(block), "[") {
			specs, err = ParseSpecs([]byte(block))
		} else {
			var sp Spec
			sp, err = ParseSpec([]byte(block))
			specs = []Spec{sp}
		}
		if err != nil {
			t.Errorf("README.md:%d: %v", start, err)
			continue
		}
		for _, sp := range specs {
			if err := sp.Validate(); err != nil {
				t.Errorf("README.md:%d: %v", start, err)
			}
		}
	}
	if blocks == 0 {
		t.Fatal("README.md has no fenced json block; the test would check nothing")
	}
}
