package core

import (
	"testing"
)

func mustNumeric(t testing.TB, name string, classes int, eps, split float64) *NumericProtocol {
	t.Helper()
	p, err := NewNumericProtocol(name, classes, eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNumericProtocolNames(t *testing.T) {
	// Canonicalization: estimator-style display names resolve.
	for display, canon := range map[string]string{
		"HEC-Mean": "hecmean",
		"pts_mean": "ptsmean",
		"CP-Mean":  "cpmean",
	} {
		p, err := NewNumericProtocol(display, 3, 2, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", display, err)
		}
		if p.Name() != canon {
			t.Errorf("%s canonicalized to %q, want %q", display, p.Name(), canon)
		}
	}
	if _, err := NewNumericProtocol("bogus", 3, 2, 0.5); err == nil {
		t.Error("unknown numeric protocol accepted")
	}
	if _, err := NewNumericProtocol("ptsmean", 3, 2, 1.5); err == nil {
		t.Error("out-of-range split accepted")
	}
	if _, err := NewNumericProtocol("cpmean", 0, 2, 0.5); err == nil {
		t.Error("zero classes accepted")
	}
	if _, err := NewNumericProtocol("hecmean", 3, 0, 0.5); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestNumericWireCompatible: a nil protocol is never compatible; the other
// rules — hecmean's unused split among them — are
// TestEnvelopeFingerprintMismatch's, run here on the mean rows.
func TestNumericWireCompatible(t *testing.T) {
	if err := mustNumeric(t, "cpmean", 3, 2, 0.5).WireCompatible(nil); err == nil {
		t.Error("nil protocol accepted")
	}
	forRows(t, meanRows, crossProtocolRefusal)
}
