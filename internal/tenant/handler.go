package tenant

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/collect"
	"repro/internal/obs"
)

// maxSpecBytes caps an admin create request body; specs are a few hundred
// bytes.
const maxSpecBytes = 1 << 20

// WireTenantInfo is one tenant in the GET /admin/tenants listing: the spec
// with its token redacted, plus whether a token guards the data routes.
type WireTenantInfo struct {
	Spec
	Auth bool `json:"auth"`
}

// WireTenantStats is one tenant's block in the registry-wide GET /stats.
type WireTenantStats struct {
	Name  string            `json:"name"`
	Stats collect.WireStats `json:"stats"`
}

// WireRegistryStats is the registry-wide GET /stats document: the default
// tenant's snapshot inlined (so single-tenant scrapers keep working
// unchanged — absent fields when no default tenant exists), plus one block
// per tenant.
type WireRegistryStats struct {
	collect.WireStats
	Tenants []WireTenantStats `json:"tenants"`
}

// Handler returns the registry's HTTP surface:
//
//	GET    /admin/tenants              → []WireTenantInfo (tokens redacted)
//	POST   /admin/tenants/{name}       → create tenant {name} from the Spec body
//	DELETE /admin/tenants/{name}       → delete tenant {name} and its state
//	GET    /admin/tenants/{name}/stats → one tenant's collect.WireStats
//	GET    /stats                      → WireRegistryStats (all tenants)
//	GET    /metrics                    → global roll-up: registry series plus
//	                                     every tenant's under tenant="name"
//	GET    /debug/pprof/...            → net/http/pprof (admin token)
//	GET    /healthz                    → 200 ok
//	/t/{name}/...                      → tenant {name}'s collect.Server routes
//	                                     (including its own GET /metrics view)
//	/...                               → alias for /t/default/... (404 without
//	                                     a "default" tenant)
//
// Admin routes are guarded by Options.AdminToken; each tenant's data routes
// by its own Spec.Token (empty token = open, in both cases).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /admin/tenants", r.admin(r.handleList))
	mux.HandleFunc("POST /admin/tenants/{name}", r.admin(r.handleCreate))
	mux.HandleFunc("DELETE /admin/tenants/{name}", r.admin(r.handleDelete))
	mux.HandleFunc("GET /admin/tenants/{name}/stats", r.admin(r.handleTenantStats))
	mux.HandleFunc("GET /stats", r.handleStats)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mountPprof(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/t/{name}/", func(w http.ResponseWriter, req *http.Request) {
		ent, ok := r.lookup(req.PathValue("name"))
		if !ok {
			http.Error(w, "tenant not found", http.StatusNotFound)
			return
		}
		ent.routed.ServeHTTP(w, req)
	})
	// Everything else aliases the default tenant, so a registry hosting one
	// tenant named "default" is wire-compatible with a plain collect.Server.
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		ent, ok := r.lookup(DefaultTenant)
		if !ok {
			http.Error(w, "no default tenant", http.StatusNotFound)
			return
		}
		ent.unrouted.ServeHTTP(w, req)
	})
	return mux
}

// bearerOK reports whether the request carries "Authorization: Bearer
// <token>", compared in constant time.
func bearerOK(req *http.Request, token string) bool {
	auth := req.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) < len(prefix) || auth[:len(prefix)] != prefix {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) == 1
}

// requireBearer guards h with a tenant bearer token, counting rejections
// into the tenant's auth-failure series; an empty token leaves it open.
func requireBearer(token string, fail *obs.Counter, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !bearerOK(req, token) {
			fail.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="tenant"`)
			http.Error(w, "missing or invalid tenant token", http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, req)
	})
}

// admin guards an admin handler with the registry admin token.
func (r *Registry) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.adminToken != "" && !bearerOK(req, r.adminToken) {
			r.adminAuthFail.Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="tenant-admin"`)
			http.Error(w, "missing or invalid admin token", http.StatusUnauthorized)
			return
		}
		h(w, req)
	}
}

func (r *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	r.mu.RLock()
	out := make([]WireTenantInfo, 0, len(r.order))
	for _, name := range r.order {
		sp := r.tenants[name].spec
		out = append(out, WireTenantInfo{Spec: sp.Redacted(), Auth: sp.Token != ""})
	}
	r.mu.RUnlock()
	writeJSON(w, out)
}

func (r *Registry) handleCreate(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	body, err := io.ReadAll(io.LimitReader(req.Body, maxSpecBytes+1))
	if err != nil {
		http.Error(w, "read spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxSpecBytes {
		http.Error(w, "spec too large", http.StatusRequestEntityTooLarge)
		return
	}
	sp, err := ParseSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if sp.Name != "" && sp.Name != name {
		http.Error(w, fmt.Sprintf("spec name %q does not match path name %q", sp.Name, name), http.StatusBadRequest)
		return
	}
	sp.Name = name
	if err := r.Create(sp); err != nil {
		writeRegistryError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(WireTenantInfo{Spec: sp.Redacted(), Auth: sp.Token != ""})
}

func (r *Registry) handleDelete(w http.ResponseWriter, req *http.Request) {
	if err := r.Delete(req.PathValue("name")); err != nil {
		writeRegistryError(w, err)
		return
	}
	fmt.Fprintln(w, "deleted")
}

func (r *Registry) handleTenantStats(w http.ResponseWriter, req *http.Request) {
	ent, ok := r.lookup(req.PathValue("name"))
	if !ok {
		http.Error(w, "tenant not found", http.StatusNotFound)
		return
	}
	writeJSON(w, ent.srv.StatsSnapshot())
}

func (r *Registry) handleStats(w http.ResponseWriter, _ *http.Request) {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	srvs := make([]*collect.Server, len(names))
	for i, name := range names {
		srvs[i] = r.tenants[name].srv
	}
	r.mu.RUnlock()
	// Snapshots are taken outside r.mu: StatsSnapshot reads each tier's
	// state and must not hold the registry lock against the data path.
	st := WireRegistryStats{Tenants: make([]WireTenantStats, 0, len(names))}
	for i, name := range names {
		snap := srvs[i].StatsSnapshot()
		if name == DefaultTenant {
			st.WireStats = snap
		}
		st.Tenants = append(st.Tenants, WireTenantStats{Name: name, Stats: snap})
	}
	writeJSON(w, st)
}

// writeRegistryError maps registry errors to their HTTP statuses.
func writeRegistryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrExists):
		status = http.StatusConflict
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrTooManyTenants):
		status = http.StatusTooManyRequests
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
