package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/wal"
)

// DefaultMaxTenants caps how many tenants a registry hosts; each holds a
// full collect.Server (aggregates, open WAL segments, possibly planners).
const DefaultMaxTenants = 1024

// registryFingerprint seals registry WAL snapshots; a mismatch means the
// directory holds some other component's state.
const registryFingerprint = "mcim/tenant-registry/v1"

// registryCompactAfterBytes is how many registry-log bytes may accumulate
// past the last snapshot before a create/delete compacts it. Specs are
// tiny, so the registry compacts synchronously and rarely.
const registryCompactAfterBytes = 1 << 20

// Registry WAL record types. Each record is the type byte followed by the
// JSON spec (create) or JSON {"name": ...} (delete).
const (
	recCreate = 'C'
	recDelete = 'D'
)

var (
	// ErrExists reports a create for a name already registered.
	ErrExists = errors.New("tenant: already exists")
	// ErrNotFound reports an operation on a name not registered.
	ErrNotFound = errors.New("tenant: not found")
	// ErrTooManyTenants reports a create beyond the registry's cap.
	ErrTooManyTenants = errors.New("tenant: registry is at its tenant cap")
)

// Options configures a Registry.
type Options struct {
	// Dir is the registry's durable root: the registry's own log lives at
	// <Dir>/registry and tenant state at <Dir>/tenants/<name>/{freq,mean,topk}.
	// Empty means memory-only — no registry log, no tenant WALs, nothing
	// survives a restart.
	Dir string

	// WAL tunes every log the registry opens (its own and each tenant's):
	// segment roll size and fsync policy. Zero values keep the wal defaults.
	WAL wal.Options

	// MaxTenants caps the hosted tenant count; <1 means DefaultMaxTenants.
	MaxTenants int

	// AdminToken, when non-empty, guards the /admin/tenants routes:
	// requests must carry "Authorization: Bearer <token>". Empty leaves
	// administration open (development mode).
	AdminToken string
}

// tenantEntry is one hosted tenant: its spec, its server, and its data
// handler (auth wrap + route strip, built once at install).
type tenantEntry struct {
	spec     Spec
	srv      *collect.Server
	routed   http.Handler // serves /t/<name>/<path> (prefix stripped, auth checked)
	unrouted http.Handler // serves legacy unprefixed paths (auth checked)
}

// Registry hosts named tenants. It is safe for concurrent use: lookups on
// the data path take a read lock; creates and deletes serialize on the
// write lock around the registry-log append so the log records them in the
// order they took effect.
type Registry struct {
	dir        string
	walOpts    wal.Options
	maxTenants int
	adminToken string

	obs           *obs.Registry
	adminAuthFail *obs.Counter

	mu       sync.RWMutex
	log      *wal.Log // nil when memory-only
	tenants  map[string]*tenantEntry
	order    []string            // creation order, for listings and snapshots
	reserved map[string]struct{} // names mid-create: count toward the cap, not yet routable
	closed   bool
}

// New opens (or creates) a registry rooted at opts.Dir, replaying its log
// so the tenant set — and, through each tenant's own WAL, each tenant's
// aggregate state — is exactly what it was before the last shutdown or
// crash.
func New(opts Options) (*Registry, error) {
	if opts.MaxTenants < 1 {
		opts.MaxTenants = DefaultMaxTenants
	}
	r := &Registry{
		dir:        opts.Dir,
		walOpts:    opts.WAL,
		maxTenants: opts.MaxTenants,
		adminToken: opts.AdminToken,
		tenants:    make(map[string]*tenantEntry),
		reserved:   make(map[string]struct{}),
	}
	r.initObs()
	if r.dir == "" {
		return r, nil
	}
	// The registry log gets its own metric hooks (log="registry"); the
	// shared walOpts stay clean — each tenant's logs register on that
	// tenant's own collect registry instead.
	logOpts := r.walOpts
	wm, replayG := collect.NewWALMetrics(r.obs, "registry")
	logOpts.Metrics = wm
	log, err := wal.Open(filepath.Join(r.dir, "registry"), logOpts)
	if err != nil {
		return nil, fmt.Errorf("tenant: open registry log: %w", err)
	}
	replayStart := time.Now()
	specs, err := replayRegistry(log)
	if err != nil {
		log.Close()
		return nil, err
	}
	replayG.Set(time.Since(replayStart).Seconds())
	if len(specs) > r.maxTenants {
		log.Close()
		return nil, fmt.Errorf("%w: log holds %d tenants, cap is %d", ErrTooManyTenants, len(specs), r.maxTenants)
	}
	r.log = log
	for _, sp := range specs {
		srv, err := sp.build(r.tenantDir(sp.Name), r.walOpts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("tenant: rebuild %q from registry log: %w", sp.Name, err)
		}
		r.install(sp, srv)
	}
	if err := r.removeOrphans(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// replayRegistry folds the registry log into the live spec set, in
// creation order. Tenant servers are built only after the full replay, so
// a created-then-deleted tenant never opens (or recreates) its directory.
func replayRegistry(log *wal.Log) ([]Spec, error) {
	byName := make(map[string]int) // name → index in specs; -1 = deleted slot
	var specs []Spec
	apply := func(rec []byte) error {
		if len(rec) < 1 {
			return fmt.Errorf("tenant: empty registry record")
		}
		switch rec[0] {
		case recCreate:
			var sp Spec
			if err := json.Unmarshal(rec[1:], &sp); err != nil {
				return fmt.Errorf("tenant: registry create record: %w", err)
			}
			if i, ok := byName[sp.Name]; ok && i >= 0 {
				return fmt.Errorf("tenant: registry log creates %q twice without an intervening delete", sp.Name)
			}
			byName[sp.Name] = len(specs)
			specs = append(specs, sp)
		case recDelete:
			var del struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(rec[1:], &del); err != nil {
				return fmt.Errorf("tenant: registry delete record: %w", err)
			}
			i, ok := byName[del.Name]
			if !ok || i < 0 {
				return fmt.Errorf("tenant: registry log deletes unknown tenant %q", del.Name)
			}
			specs[i] = Spec{} // tombstone; compacted out below
			byName[del.Name] = -1
		default:
			return fmt.Errorf("tenant: unknown registry record type %q", rec[0])
		}
		return nil
	}
	onSnapshot := func(snap []byte) error {
		fp, payload, err := state.Decode(snap)
		if err != nil {
			return fmt.Errorf("tenant: registry snapshot: %w", err)
		}
		if fp != registryFingerprint {
			return fmt.Errorf("tenant: registry snapshot fingerprint %q (want %q)", fp, registryFingerprint)
		}
		var snapSpecs []Spec
		if err := json.Unmarshal(payload, &snapSpecs); err != nil {
			return fmt.Errorf("tenant: registry snapshot payload: %w", err)
		}
		byName = make(map[string]int)
		specs = specs[:0]
		for _, sp := range snapSpecs {
			if _, ok := byName[sp.Name]; ok {
				return fmt.Errorf("tenant: registry snapshot lists %q twice", sp.Name)
			}
			byName[sp.Name] = len(specs)
			specs = append(specs, sp)
		}
		return nil
	}
	if err := log.Replay(onSnapshot, apply); err != nil {
		return nil, err
	}
	live := specs[:0]
	for _, sp := range specs {
		if sp.Name != "" {
			live = append(live, sp)
		}
	}
	return live, nil
}

// removeOrphans deletes tenant state directories whose tenant is not in
// the live set — leftovers of a delete that removed the registry record
// but crashed before (or mid-way through) removing the directory.
func (r *Registry) removeOrphans() error {
	root := filepath.Join(r.dir, "tenants")
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("tenant: scan tenant directories: %w", err)
	}
	for _, e := range entries {
		if _, live := r.tenants[e.Name()]; live {
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
			return fmt.Errorf("tenant: remove orphaned tenant directory %q: %w", e.Name(), err)
		}
	}
	return nil
}

// tenantDir is where a tenant's durable state lives ("" when memory-only).
func (r *Registry) tenantDir(name string) string {
	if r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, "tenants", name)
}

// install registers a built tenant under r.mu (or during New, before the
// registry is shared). The data handlers are built once here so the hot
// path is a map lookup, not a per-request StripPrefix allocation.
func (r *Registry) install(sp Spec, srv *collect.Server) {
	h := srv.Handler()
	authFail := r.obs.Counter("mcim_tenant_auth_failures_total",
		"Requests rejected 401 on a tenant's data routes, by tenant.", "tenant", sp.Name)
	guarded := requireBearer(sp.Token, authFail, h)
	r.tenants[sp.Name] = &tenantEntry{
		spec:     sp,
		srv:      srv,
		routed:   http.StripPrefix("/t/"+sp.Name, guarded),
		unrouted: guarded,
	}
	r.order = append(r.order, sp.Name)
}

// Create validates the spec, builds its server, and registers it durably:
// the registry log records the create before the tenant becomes routable,
// so a crash straddling the call either has the tenant (and resurrects it)
// or does not (and removes any half-built directory as an orphan).
func (r *Registry) Create(sp Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	// Reserve the name and a cap slot before the (potentially slow,
	// directory-replaying) server build, so two concurrent creates of the
	// same name — or a herd racing the cap — resolve under the lock.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("tenant: registry closed")
	}
	if _, ok := r.tenants[sp.Name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, sp.Name)
	}
	if _, ok := r.reserved[sp.Name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q (create in progress)", ErrExists, sp.Name)
	}
	if len(r.tenants)+len(r.reserved) >= r.maxTenants {
		r.mu.Unlock()
		return fmt.Errorf("%w (%d)", ErrTooManyTenants, r.maxTenants)
	}
	r.reserved[sp.Name] = struct{}{}
	r.mu.Unlock()

	srv, err := sp.build(r.tenantDir(sp.Name), r.walOpts)
	if err != nil {
		r.dropReservation(sp.Name)
		return err
	}

	r.mu.Lock()
	delete(r.reserved, sp.Name)
	if r.closed {
		r.mu.Unlock()
		srv.Close()
		return fmt.Errorf("tenant: registry closed")
	}
	if r.log != nil {
		rec, err := createRecord(sp)
		if err == nil {
			err = r.log.Append(rec)
		}
		if err != nil {
			r.mu.Unlock()
			srv.Close()
			os.RemoveAll(r.tenantDir(sp.Name))
			return fmt.Errorf("tenant: log create %q: %w", sp.Name, err)
		}
	}
	r.install(sp, srv)
	r.maybeCompactLocked()
	r.mu.Unlock()
	return nil
}

// Ensure creates the tenant if absent and is a no-op if a tenant with that
// name already exists (the existing spec wins — startup specs must not
// clobber a live tenant's accumulated state).
func (r *Registry) Ensure(sp Spec) error {
	err := r.Create(sp)
	if errors.Is(err, ErrExists) {
		return nil
	}
	return err
}

// dropReservation releases a name reserved by Create after a failed build.
func (r *Registry) dropReservation(name string) {
	r.mu.Lock()
	delete(r.reserved, name)
	r.mu.Unlock()
}

// Delete removes a tenant: the registry log records the delete (making it
// durable), the tenant leaves the route table, and its server and state
// directory are torn down. In-flight requests holding the server see its
// WAL close underneath them and answer 500; their reports are gone with
// the tenant, which is the point.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	ent, ok := r.tenants[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if r.log != nil {
		rec, err := deleteRecord(name)
		if err == nil {
			err = r.log.Append(rec)
		}
		if err != nil {
			r.mu.Unlock()
			return fmt.Errorf("tenant: log delete %q: %w", name, err)
		}
	}
	delete(r.tenants, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.maybeCompactLocked()
	r.mu.Unlock()

	// Teardown outside the lock: Close flushes and closes the tenant's
	// logs (concurrent appends fail cleanly — wal.Append after Close is an
	// error, not a panic), then the directory goes. A crash between the
	// append above and this RemoveAll leaves an orphan directory that the
	// next New sweeps.
	err := ent.srv.Close()
	if dir := r.tenantDir(name); dir != "" {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}
	if err != nil {
		return fmt.Errorf("tenant: tear down %q: %w", name, err)
	}
	return nil
}

func createRecord(sp Spec) ([]byte, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	return append([]byte{recCreate}, body...), nil
}

func deleteRecord(name string) ([]byte, error) {
	body, err := json.Marshal(struct {
		Name string `json:"name"`
	}{name})
	if err != nil {
		return nil, err
	}
	return append([]byte{recDelete}, body...), nil
}

// maybeCompactLocked folds the registry log into a snapshot of the live
// spec set once enough record bytes accumulate. Specs are tiny and
// creates/deletes rare, so this runs synchronously under r.mu; a failure
// is non-fatal (the log still replays correctly, just longer).
func (r *Registry) maybeCompactLocked() {
	if r.log == nil || r.log.BytesSinceSeal() < registryCompactAfterBytes {
		return
	}
	specs := make([]Spec, 0, len(r.order))
	for _, name := range r.order {
		specs = append(specs, r.tenants[name].spec)
	}
	payload, err := json.Marshal(specs)
	if err != nil {
		return
	}
	cover, err := r.log.Roll()
	if err != nil {
		return
	}
	r.log.Seal(cover, state.Encode(registryFingerprint, payload))
}

// Tenant returns the named tenant's server, or nil if it is not
// registered. The server remains valid until the tenant is deleted.
func (r *Registry) Tenant(name string) *collect.Server {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ent, ok := r.tenants[name]; ok {
		return ent.srv
	}
	return nil
}

// Names returns the registered tenant names in creation order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// lookup returns the named tenant's entry under a read lock.
func (r *Registry) lookup(name string) (*tenantEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ent, ok := r.tenants[name]
	return ent, ok
}

// Close shuts the registry down: every tenant's server (flushing its logs)
// and the registry's own log. The tenant set and all state stay on disk
// for the next New.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	tenants := make([]*tenantEntry, 0, len(r.tenants))
	for _, ent := range r.tenants {
		tenants = append(tenants, ent)
	}
	log := r.log
	r.mu.Unlock()

	var firstErr error
	for _, ent := range tenants {
		if err := ent.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if log != nil {
		if err := log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
