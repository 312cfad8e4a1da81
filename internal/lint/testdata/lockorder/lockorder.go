// Package lockorder exercises the cross-package lock acquisition-order
// analyzer: a deliberate two-lock cycle, an asserted hierarchy that gets
// violated, an interprocedural edge through a fact from the sub package,
// a stale assertion, a suppressed cycle, a deferred literal walked with
// its own held set, goroutines started under a lock, which record no
// edge, and branches that end in a return or a panic, whose held set ends
// with them.
package lockorder

import (
	"sync"

	"wls/internal/lint/testdata/lockorder/sub"
)

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

var (
	a A
	b B
)

// lockAB establishes the edge lockorder.A.mu → lockorder.B.mu. The cycle
// diagnostic lands on the first edge of the cycle, which is this one.
func lockAB() {
	a.mu.Lock()
	b.mu.Lock() // want "lock-order cycle lockorder.A.mu → lockorder.B.mu → lockorder.A.mu"
	b.mu.Unlock()
	a.mu.Unlock()
}

// lockBA closes the cycle in the opposite direction.
func lockBA() {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

type C struct{ mu sync.Mutex }

type D struct{ mu sync.Mutex }

var (
	c C
	d D
)

//wls:lockorder lockorder.C.mu<lockorder.D.mu

// lockDC contradicts the asserted hierarchy without forming a cycle.
func lockDC() {
	d.mu.Lock()
	c.mu.Lock() // want "lock order violation: lockorder.C.mu acquired while lockorder.D.mu is held"
	c.mu.Unlock()
	d.mu.Unlock()
}

// An assertion naming a class nobody acquires is stale and reported.
/* want "never acquired" */ //wls:lockorder lockorder.Nope.mu<lockorder.C.mu

type G struct{ mu sync.Mutex }

var (
	g     G
	store sub.Store
)

//wls:lockorder sub.Store.mu<lockorder.G.mu

// gThenStore violates the asserted cross-package hierarchy through a
// call: the sub.Store.mu acquisition arrives via Put's exported fact.
func gThenStore() {
	g.mu.Lock()
	store.Put(1) // want "lock order violation: sub.Store.mu acquired while lockorder.G.mu is held"
	g.mu.Unlock()
}

type E struct{ mu sync.Mutex }

type F struct{ mu sync.Mutex }

var (
	e E
	f F
)

// lockEF and lockFE form a deliberate cycle whose report is accepted
// with a //wls:nolint on the reporting edge; nothing may leak through.
func lockEF() {
	e.mu.Lock()
	//wls:nolint lockorder -- fixture: deliberate cycle, suppression path under test
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

func lockFE() {
	f.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	f.mu.Unlock()
}

type H struct{ mu sync.Mutex }

type I struct{ mu sync.Mutex }

var (
	h H
	i I
)

//wls:lockorder lockorder.H.mu<lockorder.I.mu

func lockH() {
	h.mu.Lock()
	h.mu.Unlock()
}

// spawnLockH only starts lockH; its own summary acquires nothing.
func spawnLockH() {
	go lockH()
}

// goUnderI starts goroutines that take H while I is held. They take it on
// their own schedule, so neither records an I→H edge against the
// assertion.
func goUnderI() {
	i.mu.Lock()
	go lockH()
	spawnLockH()
	i.mu.Unlock()
}

type J struct{ mu sync.Mutex }

type K struct{ mu sync.Mutex }

var (
	j J
	k K
)

//wls:lockorder lockorder.J.mu<lockorder.K.mu

// deferKJ inverts the asserted order inside a deferred literal, which is
// walked with a fresh held set like any other literal.
func deferKJ() {
	defer func() {
		k.mu.Lock()
		j.mu.Lock() // want "lock order violation: lockorder.J.mu acquired while lockorder.K.mu is held"
		j.mu.Unlock()
		k.mu.Unlock()
	}()
}

type L struct{ mu sync.Mutex }

type M struct{ mu sync.Mutex }

var (
	l L
	m M
)

//wls:lockorder lockorder.L.mu<lockorder.M.mu

// earlyReturnML releases M on a branch that returns, then takes L with M
// still held on the path that falls through: the branch's Unlock does not
// release M for the rest of the body.
func earlyReturnML(done bool) {
	m.mu.Lock()
	if done {
		m.mu.Unlock()
		return
	}
	l.mu.Lock() // want "lock order violation: lockorder.L.mu acquired while lockorder.M.mu is held"
	l.mu.Unlock()
	m.mu.Unlock()
}

// panicOnlyML takes L under M in a branch that ends in a panic: what the
// branch holds is its own, so the Lock after it records no edge.
func panicOnlyML(bad bool) {
	if bad {
		m.mu.Lock()
		panic("bad")
	}
	l.mu.Lock()
	l.mu.Unlock()
}
