package servlet

import (
	"bytes"
	"sync"
	"time"

	"wls/internal/metrics"
	"wls/internal/vclock"
)

// Scope controls who may share a cached page or fragment: "a page or
// fragment may be tagged as being for an individual user or a group of
// users" (§3.3).
type Scope int

// Fragment scopes.
const (
	// ScopeGlobal entries are shared by everyone.
	ScopeGlobal Scope = iota
	// ScopeGroup entries are shared within a user group.
	ScopeGroup
	// ScopeUser entries are private to one user.
	ScopeUser
)

// Fragment is one cacheable piece of a page.
//
//wls:nolint unreached -- library-only: §3.3, TestFragmentCachingSharesAcrossUsers
type Fragment struct {
	// Name identifies the fragment within its page.
	Name string
	// Scope selects the sharing granularity.
	Scope Scope
	// TTL is the fragment's time-to-live, "after which it is flushed from
	// the cache".
	TTL time.Duration
	// Render produces the fragment body.
	Render func(user, group string) []byte
}

// Page is a JSP-like page assembled from fragments.
//
//wls:nolint unreached -- library-only: §3.3, TestFragmentCachingSharesAcrossUsers
type Page struct {
	Name      string
	Fragments []Fragment
}

// PageCacheMode selects whole-page vs fragment-level caching: "WebLogic
// Server caches the HTML results of JSPs at either the whole page or
// fragment level. Fragment-level caching is useful when components of a
// page may be personalized for different users."
type PageCacheMode int

// Page cache modes.
const (
	// CacheWholePage caches the assembled page per (page, scope key): any
	// personalized fragment forces the whole entry to be per-user.
	CacheWholePage PageCacheMode = iota
	// CacheFragments caches each fragment at its own scope, so shared
	// fragments are rendered once even on personalized pages.
	CacheFragments
)

// PageCache renders pages with caching.
type PageCache struct {
	mode  PageCacheMode
	clock vclock.Clock
	reg   *metrics.Registry

	mu      sync.Mutex
	entries map[string]pageEntry
	renders int64 // total fragment/page render calls (cost proxy)
}

type pageEntry struct {
	body []byte
	at   time.Time
	ttl  time.Duration
}

// NewPageCache creates a page cache.
//
//wls:nolint unreached -- library-only: §3.3, TestFragmentCachingSharesAcrossUsers
func NewPageCache(mode PageCacheMode, clock vclock.Clock, reg *metrics.Registry) *PageCache {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &PageCache{mode: mode, clock: clock, reg: reg, entries: make(map[string]pageEntry)}
}

// scopeKey builds the cache key component for a scope.
func scopeKey(s Scope, user, group string) string {
	switch s {
	case ScopeUser:
		return "u:" + user
	case ScopeGroup:
		return "g:" + group
	default:
		return "*"
	}
}

// pageScope is the widest scope any fragment requires (whole-page mode
// must key the page at the narrowest personalization level).
func pageScope(p Page) Scope {
	s := ScopeGlobal
	for _, f := range p.Fragments {
		if f.Scope > s {
			s = f.Scope
		}
	}
	return s
}

// minTTL is the shortest fragment TTL (whole-page entries expire when any
// component would).
func minTTL(p Page) time.Duration {
	var min time.Duration
	for i, f := range p.Fragments {
		if i == 0 || f.TTL < min {
			min = f.TTL
		}
	}
	return min
}

// Render assembles the page for a user/group, consulting the cache.
func (pc *PageCache) Render(p Page, user, group string) []byte {
	switch pc.mode {
	case CacheFragments:
		var buf bytes.Buffer
		for _, f := range p.Fragments {
			buf.Write(pc.fragment(p.Name, f, user, group))
		}
		return buf.Bytes()
	default:
		key := "page/" + p.Name + "/" + scopeKey(pageScope(p), user, group)
		if body, ok := pc.lookup(key); ok {
			return body
		}
		var buf bytes.Buffer
		for _, f := range p.Fragments {
			pc.mu.Lock()
			pc.renders++
			pc.mu.Unlock()
			buf.Write(f.Render(user, group))
		}
		pc.store(key, buf.Bytes(), minTTL(p))
		return buf.Bytes()
	}
}

func (pc *PageCache) fragment(page string, f Fragment, user, group string) []byte {
	key := "frag/" + page + "/" + f.Name + "/" + scopeKey(f.Scope, user, group)
	if body, ok := pc.lookup(key); ok {
		return body
	}
	pc.mu.Lock()
	pc.renders++
	pc.mu.Unlock()
	body := f.Render(user, group)
	pc.store(key, body, f.TTL)
	return body
}

func (pc *PageCache) lookup(key string) ([]byte, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[key]
	if !ok || (e.ttl > 0 && pc.clock.Since(e.at) > e.ttl) {
		pc.reg.Counter("jsp.misses").Inc()
		return nil, false
	}
	pc.reg.Counter("jsp.hits").Inc()
	return e.body, true
}

func (pc *PageCache) store(key string, body []byte, ttl time.Duration) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries[key] = pageEntry{body: body, at: pc.clock.Now(), ttl: ttl}
}
