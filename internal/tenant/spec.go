// Package tenant hosts many named collection instances — tenants — behind
// one HTTP surface. Each tenant is a full collect.Server (frequency, mean,
// and/or top-k tiers) with its own aggregates, write-ahead log subdirectory,
// body cap, bearer token, and ingestion rate limit; the registry itself is
// write-ahead logged, so a crashed host restarts with the exact tenant set
// and every tenant's exact state. Data routes live under /t/<name>/...,
// reusing every collect.Server handler unchanged; the legacy unprefixed
// routes alias the tenant named "default"; /admin/tenants manages the set.
package tenant

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wal"
)

// DefaultTenant is the tenant name the legacy unprefixed routes alias: a
// request to /reports is a request to /t/default/reports. Single-tenant
// deployments never need to know tenants exist.
const DefaultTenant = "default"

// nameRE admits names that are safe as both a path segment and a
// directory name, with no escaping in either.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// ValidName reports whether name is a legal tenant name: 1–64 characters
// from [a-zA-Z0-9_-]. The alphabet is the intersection of what is safe in
// a URL path segment and a filesystem directory name without escaping.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// FreqSpec configures a tenant's frequency tier (core.NewProtocol
// parameters).
type FreqSpec struct {
	Protocol string  `json:"protocol"`
	Classes  int     `json:"classes"`
	Items    int     `json:"items"`
	Epsilon  float64 `json:"epsilon"`
	Split    float64 `json:"split,omitempty"`
}

// MeanSpec configures a tenant's numeric mean tier (core.NewNumericProtocol
// parameters).
type MeanSpec struct {
	Protocol string  `json:"protocol"`
	Classes  int     `json:"classes"`
	Epsilon  float64 `json:"epsilon"`
	Split    float64 `json:"split,omitempty"`
}

// TopKSpec configures a tenant's interactive top-k mining tier.
type TopKSpec struct {
	// MaxSessions caps concurrently tracked sessions; <1 means
	// collect.DefaultMaxTopKSessions.
	MaxSessions int `json:"max_sessions,omitempty"`
}

// Spec is the declarative description of one tenant — what an admin POSTs
// to /admin/tenants/{name} and what the registry logs and replays. At
// least one tier must be present.
type Spec struct {
	// Name identifies the tenant in routes (/t/<name>/...) and on disk
	// (<dir>/tenants/<name>). In an admin request body it may be left
	// empty; the path supplies it.
	Name string `json:"name,omitempty"`

	Freq *FreqSpec `json:"freq,omitempty"`
	Mean *MeanSpec `json:"mean,omitempty"`
	TopK *TopKSpec `json:"topk,omitempty"`

	// Token, when non-empty, guards every data route of this tenant:
	// requests must carry "Authorization: Bearer <token>". Listings never
	// echo it back.
	Token string `json:"token,omitempty"`

	// MaxBodyBytes caps report-submission bodies for this tenant; <1 keeps
	// collect.DefaultMaxBodyBytes.
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`

	// RateLimit, when positive, caps this tenant's sustained ingestion in
	// reports per second (token bucket; excess answered 429 with
	// Retry-After). RateBurst is the bucket depth; <1 means ceil(RateLimit).
	RateLimit float64 `json:"rate_limit,omitempty"`
	RateBurst int     `json:"rate_burst,omitempty"`
}

// ParseSpec decodes one tenant spec from JSON, rejecting unknown fields —
// a typo in a tier or limit name must not silently configure nothing.
func ParseSpec(data []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("tenant: parse spec: %w", err)
	}
	// Trailing garbage after the object is a malformed request, not an
	// extension point.
	if dec.More() {
		return Spec{}, fmt.Errorf("tenant: parse spec: trailing data after spec object")
	}
	return sp, nil
}

// ParseSpecs decodes a JSON array of tenant specs — the mcimcollect
// -tenants file format. Every spec must carry its Name.
func ParseSpecs(data []byte) ([]Spec, error) {
	var specs []Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("tenant: parse specs: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("tenant: parse specs: trailing data after spec array")
	}
	return specs, nil
}

// Validate checks the spec standalone: legal name, at least one tier, every
// named protocol constructible, limits non-negative. It builds (and
// discards) the tier protocols, so a spec that validates also builds.
func (sp *Spec) Validate() error {
	if !ValidName(sp.Name) {
		return fmt.Errorf("tenant: invalid tenant name %q (want 1-64 chars of [a-zA-Z0-9_-])", sp.Name)
	}
	if sp.Freq == nil && sp.Mean == nil && sp.TopK == nil {
		return fmt.Errorf("tenant: spec for %q declares no tier (want freq, mean, and/or topk)", sp.Name)
	}
	if _, _, err := sp.protocols(); err != nil {
		return err
	}
	if sp.MaxBodyBytes < 0 {
		return fmt.Errorf("tenant: %q: negative max_body_bytes", sp.Name)
	}
	if sp.RateLimit < 0 {
		return fmt.Errorf("tenant: %q: negative rate_limit", sp.Name)
	}
	if sp.RateBurst < 0 {
		return fmt.Errorf("tenant: %q: negative rate_burst", sp.Name)
	}
	return nil
}

// protocols constructs the tier protocols the spec names (nil for absent
// tiers).
func (sp *Spec) protocols() (*core.Protocol, *core.NumericProtocol, error) {
	var (
		fp  *core.Protocol
		np  *core.NumericProtocol
		err error
	)
	if f := sp.Freq; f != nil {
		fp, err = core.NewProtocol(f.Protocol, f.Classes, f.Items, f.Epsilon, f.Split)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant: %q frequency tier: %w", sp.Name, err)
		}
	}
	if m := sp.Mean; m != nil {
		np, err = core.NewNumericProtocol(m.Protocol, m.Classes, m.Epsilon, m.Split)
		if err != nil {
			return nil, nil, fmt.Errorf("tenant: %q mean tier: %w", sp.Name, err)
		}
	}
	return fp, np, nil
}

// build constructs the tenant's collect.Server per the spec. walDir is the
// tenant's state directory ("" for a memory-only registry); the server lays
// it out as <walDir>/{freq,mean,topk}.
func (sp *Spec) build(walDir string, walOpts wal.Options) (*collect.Server, error) {
	fp, np, err := sp.protocols()
	if err != nil {
		return nil, err
	}
	opts := []collect.ServerOption{collect.WithWALTierLayout()}
	if walDir != "" {
		opts = append(opts, collect.WithWAL(walDir), collect.WithWALOptions(walOpts))
	}
	if np != nil {
		opts = append(opts, collect.WithMean(np))
	}
	if sp.TopK != nil {
		opts = append(opts, collect.WithTopKSessions(collect.TopKOptions{MaxSessions: sp.TopK.MaxSessions}))
	}
	if sp.MaxBodyBytes > 0 {
		opts = append(opts, collect.WithMaxBodyBytes(sp.MaxBodyBytes))
	}
	if sp.RateLimit > 0 {
		opts = append(opts, collect.WithRateLimit(sp.RateLimit, sp.RateBurst))
	}
	srv, err := collect.NewServer(fp, opts...)
	if err != nil {
		return nil, fmt.Errorf("tenant: build %q: %w", sp.Name, err)
	}
	return srv, nil
}

// Redacted returns a copy of the spec safe to echo in listings: the bearer
// token is stripped (its presence is reported separately).
func (sp Spec) Redacted() Spec {
	sp.Token = ""
	return sp
}
