package collect

import (
	"net/http"
	"strings"

	"repro/internal/core"
)

// This file is the client half of multi-tenant targeting: a tenant-hosting
// server (internal/tenant) serves every collection endpoint under
// /t/<name>/... and may guard the routes with a per-tenant bearer token.
// TenantBaseURL and BearerClient are the two primitives — prefix the base
// URL, decorate the http.Client — and WithTenant applies both to either
// report client, so everything built on a base URL plus an
// *http.Client (TopKSession included) targets a tenant with no further
// changes.

// TenantBaseURL returns the base URL of tenant name's data routes on a
// multi-tenant server: every endpoint the server mounts at /<path> for the
// default tenant is at /t/<name>/<path> for tenant name.
func TenantBaseURL(baseURL, name string) string {
	return strings.TrimRight(baseURL, "/") + "/t/" + name
}

// bearerTransport decorates a RoundTripper so every request carries a
// bearer token. The request is cloned before mutation, per the
// RoundTripper contract.
type bearerTransport struct {
	rt    http.RoundTripper
	token string
}

func (t *bearerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := req.Clone(req.Context())
	r2.Header.Set("Authorization", "Bearer "+t.token)
	return t.rt.RoundTrip(r2)
}

// BearerClient returns a shallow copy of hc whose requests carry
// "Authorization: Bearer <token>". An empty token returns hc unchanged (nil
// hc becomes http.DefaultClient), so callers can apply it unconditionally.
func BearerClient(hc *http.Client, token string) *http.Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if token == "" {
		return hc
	}
	rt := hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	c2 := *hc
	c2.Transport = &bearerTransport{rt: rt, token: token}
	return &c2
}

// FetchTenantProtocol is FetchProtocol against one tenant's routes on a
// multi-tenant server: baseURL is the server root, name the tenant, token
// its bearer token ("" when the tenant is unguarded).
func FetchTenantProtocol(baseURL, name, token string, hc *http.Client) (*core.Protocol, WireConfig, error) {
	return FetchProtocol(TenantBaseURL(baseURL, name), BearerClient(hc, token))
}

// FetchTenantMeanProtocol is FetchMeanProtocol against one tenant's routes.
func FetchTenantMeanProtocol(baseURL, name, token string, hc *http.Client) (*core.NumericProtocol, WireMeanConfig, error) {
	return FetchMeanProtocol(TenantBaseURL(baseURL, name), BearerClient(hc, token))
}

// WithTenant points the client at tenant name's routes on a multi-tenant
// server and attaches its bearer token to every request ("" for an
// unguarded tenant). The base URL passed to NewClient / NewMeanClient
// stays the server root.
func WithTenant(name, token string) ClientOption {
	return func(c *clientConfig) { c.tenant, c.token = name, token }
}
