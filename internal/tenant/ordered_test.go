package tenant

import "testing"

// TestRegistryLogIsOrdered: replayRegistry fails loudly on a create/delete
// sequence with a hole in it, so the registry's log must never write past
// an unflushed segment.
func TestRegistryLogIsOrdered(t *testing.T) {
	r, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.log.Commutative() {
		t.Fatal("the tenant registry opened its log commutative")
	}
}
