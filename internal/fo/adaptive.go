package fo

import "math"

// NewAdaptive returns the adaptive mechanism of Wang et al. used throughout
// the paper's experiments: GRR when the domain is small (d < 3e^ε + 2, where
// GRR's variance is lower) and OUE otherwise. The returned value is the
// chosen concrete mechanism, so its accumulator and estimator are the
// matching ones.
func NewAdaptive(d int, eps float64) (Mechanism, error) {
	if err := validate(d, eps); err != nil {
		return nil, err
	}
	if float64(d) < 3*math.Exp(eps)+2 {
		return NewGRR(d, eps)
	}
	return NewOUE(d, eps)
}
