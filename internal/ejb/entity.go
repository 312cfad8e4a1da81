package ejb

import (
	"fmt"
	"time"

	"wls/internal/attrs"
	"wls/internal/cache"
	"wls/internal/store"
	"wls/internal/tx"
	"wls/internal/wire"
)

// ConsistencyMode selects how cached entity beans relate to the backend
// store — the full §3.3 option matrix.
type ConsistencyMode int

// Entity consistency modes.
const (
	// EntityTTL gives each loaded bean a time-to-live "during which it can
	// be freely used to satisfy read requests in subsequent transactions".
	// Writes are last-writer-wins.
	EntityTTL ConsistencyMode = iota
	// EntityFlushOnUpdate additionally has the container "send out a
	// bean-level cache flush signal using a light-weight multicast
	// protocol ... automatically after it commits a transaction that
	// contains updates".
	EntityFlushOnUpdate
	// EntityOptimistic keeps "cached entity beans consistent with the
	// backend store using optimistic concurrency, but only for
	// transactions that include writes": version fields checked by an
	// extra WHERE clause at commit, with a flush signal afterwards "to
	// minimize the likelihood of subsequent concurrency exceptions".
	EntityOptimistic
	// EntityPessimistic holds database row locks from first touch to
	// transaction end (the §3.4 discussion's "pessimistic locking" case).
	EntityPessimistic
	// EntityReadOnly never writes; reads are TTL-cached.
	EntityReadOnly
)

// EntitySpec declares an entity bean type.
type EntitySpec struct {
	// Name is the bean name (scopes the flush topic).
	Name string
	// Table is the backend table holding bean rows.
	Table string
	// Mode picks the consistency option.
	Mode ConsistencyMode
	// TTL is the in-memory time-to-live for cached beans.
	TTL time.Duration
}

// EntityHome manages one entity bean type on one server.
type EntityHome struct {
	c     *Container
	spec  EntitySpec
	cache *cache.Cache
}

// DeployEntity deploys an entity bean type.
func (c *Container) DeployEntity(spec EntitySpec) *EntityHome {
	if spec.TTL == 0 {
		spec.TTL = time.Minute
	}
	mode := cache.ModeTTL
	if spec.Mode == EntityFlushOnUpdate || spec.Mode == EntityOptimistic {
		mode = cache.ModeFlushOnUpdate
	}
	loader := func(key string) ([]byte, uint64, bool) {
		row, ok := c.db.Get(spec.Table, key)
		if !ok {
			return nil, 0, false
		}
		return encodeEntity(row), row.Version, true
	}
	return &EntityHome{
		c:    c,
		spec: spec,
		cache: cache.New(cache.Config{
			Name: spec.Name,
			Mode: mode,
			TTL:  spec.TTL,
		}, c.clock, c.bus, c.reg, loader),
	}
}

// encodeEntity writes a bean's cache value: its version, then its fields
// as an attribute list in key order.
func encodeEntity(row store.Row) []byte {
	e := wire.NewEncoder(128)
	e.Uint64(row.Version)
	attrs.AppendMap(e, row.Fields)
	return e.Bytes()
}

func decodeEntity(b []byte) (map[string]string, uint64, error) {
	d := wire.NewDecoder(b)
	version := d.Uint64()
	list, err := attrs.Read(d, false)
	if err != nil {
		return nil, 0, fmt.Errorf("ejb: entity cache value: %w", err)
	}
	return attrs.Map(list), version, nil
}

// Entity is one bean instance bound to a transaction.
type Entity struct {
	home    *EntityHome
	txn     *tx.Tx
	key     string
	fields  map[string]string
	version uint64
	dirty   bool
}

// enlistSession joins the backend store to the transaction (once) and
// returns the transactional session.
func (h *EntityHome) enlistSession(txn *tx.Tx) (*store.Session, error) {
	sess := h.c.db.Session(txn.ID())
	if err := txn.Enlist("db:"+h.c.db.Name(), sess); err != nil {
		return nil, err
	}
	return sess, nil
}

// Find loads a bean inside a transaction according to the consistency mode.
func (h *EntityHome) Find(txn *tx.Tx, key string) (*Entity, error) {
	switch h.spec.Mode {
	case EntityPessimistic:
		sess, err := h.enlistSession(txn)
		if err != nil {
			return nil, err
		}
		row, ok, err := sess.GetForUpdate(h.spec.Table, key)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("ejb: %s[%s]: %w", h.spec.Name, key, store.ErrNotFound)
		}
		h.c.reg.Counter("ejb.entity.loads").Inc()
		return h.bind(txn, key, row.Fields, row.Version), nil
	default:
		raw, ok := h.cache.Get(key)
		if !ok {
			return nil, fmt.Errorf("ejb: %s[%s]: %w", h.spec.Name, key, store.ErrNotFound)
		}
		fields, version, err := decodeEntity(raw)
		if err != nil {
			return nil, err
		}
		h.c.reg.Counter("ejb.entity.loads").Inc()
		return h.bind(txn, key, fields, version), nil
	}
}

func (h *EntityHome) bind(txn *tx.Tx, key string, fields map[string]string, version uint64) *Entity {
	f := make(map[string]string, len(fields))
	for k, v := range fields {
		f[k] = v
	}
	ent := &Entity{home: h, txn: txn, key: key, fields: f, version: version}
	txn.BeforeCompletion(ent.flush)
	txn.AfterCompletion(ent.afterCompletion)
	return ent
}

// FindReadOnly reads a bean outside any transaction, straight through the
// cache — the cheap path for the read-mostly workloads of §3.3.
func (h *EntityHome) FindReadOnly(key string) (map[string]string, error) {
	raw, ok := h.cache.Get(key)
	if !ok {
		return nil, fmt.Errorf("ejb: %s[%s]: %w", h.spec.Name, key, store.ErrNotFound)
	}
	fields, _, err := decodeEntity(raw)
	return fields, err
}

// Create inserts a new bean row inside the transaction.
//
//wls:nolint unreached -- library-only: §3.3, TestEntityCreateAndRemove
func (h *EntityHome) Create(txn *tx.Tx, key string, fields map[string]string) (*Entity, error) {
	sess, err := h.enlistSession(txn)
	if err != nil {
		return nil, err
	}
	sess.Insert(h.spec.Table, key, fields)
	ent := h.bind(txn, key, fields, 0)
	ent.dirty = false // the insert is already staged
	txn.AfterCompletion(func(committed bool) {
		if committed {
			h.cache.BroadcastFlush(h.c.ServerName(), key)
		}
	})
	return ent, nil
}

// Remove deletes the bean row inside the transaction.
func (h *EntityHome) Remove(txn *tx.Tx, key string) error {
	sess, err := h.enlistSession(txn)
	if err != nil {
		return err
	}
	sess.Delete(h.spec.Table, key)
	txn.AfterCompletion(func(committed bool) {
		if committed {
			h.cache.BroadcastFlush(h.c.ServerName(), key)
		}
	})
	return nil
}

// Get reads a bean field.
func (e *Entity) Get(field string) string { return e.fields[field] }

// Set writes a bean field (visible at commit).
func (e *Entity) Set(field, value string) {
	e.fields[field] = value
	e.dirty = true
}

// flush stages the bean's write at the transaction boundary according to
// the consistency mode (the container's beforeCompletion hook).
func (e *Entity) flush() error {
	if !e.dirty {
		return nil
	}
	h := e.home
	sess, err := h.enlistSession(e.txn)
	if err != nil {
		return err
	}
	switch h.spec.Mode {
	case EntityReadOnly:
		return fmt.Errorf("ejb: %s is read-only", h.spec.Name)
	case EntityOptimistic:
		// The extra WHERE clause: commit only if the version we loaded is
		// still current.
		sess.UpdateVersioned(h.spec.Table, e.key, e.version, e.fields)
	default:
		sess.Update(h.spec.Table, e.key, e.fields)
	}
	return nil
}

// afterCompletion broadcasts flush signals after commits containing
// updates, and always drops the local copy of written beans so the next
// read reloads.
func (e *Entity) afterCompletion(committed bool) {
	if !e.dirty {
		return
	}
	h := e.home
	switch h.spec.Mode {
	case EntityFlushOnUpdate, EntityOptimistic:
		if committed {
			h.cache.BroadcastFlush(h.c.ServerName(), e.key)
		} else {
			// Aborted (possibly a concurrency exception): flush locally so
			// we reload fresh state, and signal peers "to minimize the
			// likelihood of subsequent concurrency exceptions".
			h.cache.BroadcastFlush(h.c.ServerName(), e.key)
		}
	default:
		h.cache.Flush(e.key)
	}
}
