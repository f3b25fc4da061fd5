package tenant

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// shardedSpec is a spec as an operator could write it while tenants still
// had a "shards" field.
const shardedSpec = `{"name":"acme","freq":{"protocol":"ptscp","classes":3,"items":16,"epsilon":2,"split":0.5},"shards":4}`

// TestSpecRefusesRemovedShardsField: a report tier is one aggregate, so
// "shards" is no longer a spec field, and the parsers' rule that a field
// they do not know must not silently configure nothing names it.
func TestSpecRefusesRemovedShardsField(t *testing.T) {
	_, err := ParseSpec([]byte(shardedSpec))
	if err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
		t.Fatalf("ParseSpec: %v, want the unknown-field error naming shards", err)
	}
	_, err = ParseSpecs([]byte("[" + shardedSpec + "]"))
	if err == nil || !strings.Contains(err.Error(), `unknown field "shards"`) {
		t.Fatalf("ParseSpecs: %v, want the unknown-field error naming shards", err)
	}
}

// TestRegistryLogCarryingShardsReplays: a registry log written while specs
// carried "shards" must still restart — the replay reads its own records
// leniently; only the admin-facing parsers are strict.
func TestRegistryLogCarryingShardsReplays(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "registry"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(append([]byte{recCreate}, shardedSpec...)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if names := r.Names(); len(names) != 1 || names[0] != "acme" {
		t.Fatalf("replayed tenants %v, want [acme]", names)
	}
}
