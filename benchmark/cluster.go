package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"wls/internal/cluster"
	"wls/internal/gossip"
	"wls/internal/kv"
	"wls/internal/metrics"
	"wls/internal/partition"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/store"
	"wls/internal/transport"
	"wls/internal/tx"
	"wls/internal/webtier"
)

const (
	numServers = 3
	cookieName = "WLSESSION"
	// numSKUs rows are preloaded into inventory's catalog and stock tables.
	numSKUs = 1024
)

// server is one application server, assembled from the internal packages
// the way wls.New assembles it, but on a TCP transport node.
type server struct {
	name   string
	tr     *transport.Transport
	member *cluster.Member
	web    *servlet.Engine
	txm    *tx.Manager
	txlog  *tx.FileLog
}

// sut is the system under test: three servers on loopback TCP, two shared
// durable stores, and the proxy plug-in on its own transport node behind a
// net/http listener. Every end-to-end metric is taken at that HTTP port.
type sut struct {
	t   *tracer
	dev *device
	dir string

	servers   []*server
	proxyTr   *transport.Transport
	proxy     *webtier.ProxyPlugin
	proxyReg  *metrics.Registry
	orders    *store.Store
	inventory *store.Store

	httpSrv  *http.Server
	httpDone chan error
	httpAddr string
}

// buildSUT assembles and starts the system in dir, waits for membership to
// converge, warms every transport connection and preloads the inventory.
// t is nil for an untraced system.
func buildSUT(dir string, floor time.Duration, t *tracer) (*sut, error) {
	s := &sut{t: t, dev: &device{floor: floor, t: t}, dir: dir}
	if err := s.start(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *sut) start() error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	var err error
	if s.orders, err = s.openStore("orders"); err != nil {
		return err
	}
	if s.inventory, err = s.openStore("inventory"); err != nil {
		return err
	}

	// The proxy listens first so the servers' inbound decorators can tell
	// its frames from peer frames. It has its own node, so no server ever
	// calls its own address (the transport self-dial race, ROADMAP item 1).
	if s.proxyTr, err = transport.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	bus := gossip.NewInMemory(clk, 1)
	cfg := cluster.Config{
		Name:              "bench",
		HeartbeatInterval: 100 * time.Millisecond,
		// Long enough that a GC pause or a descheduled process on the
		// shared box cannot drop a member in a timed window.
		FailureTimeout: 2 * time.Second,
	}
	for i := 0; i < numServers; i++ {
		if err := s.startServer(i, cfg, bus); err != nil {
			return err
		}
	}
	s.proxyReg = metrics.NewRegistry()
	proxyNode := s.t.node(s.proxyTr, spProxyCall, "")
	s.proxy = webtier.NewProxyPlugin(proxyNode, rmi.MemberView{Member: s.servers[0].member}, s.proxyReg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.httpAddr = l.Addr().String()
	s.httpSrv = &http.Server{Handler: http.HandlerFunc(s.serveHTTP)}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.httpSrv.Serve(l) }()

	if err := s.converge(); err != nil {
		return err
	}
	if err := s.warmConns(proxyNode); err != nil {
		return err
	}
	return s.preload()
}

func (s *sut) openStore(name string) (*store.Store, error) {
	w, err := kv.OpenWAL(filepath.Join(s.dir, name+".db"), kv.Options{SyncEveryCommit: true, FS: s.dev.fs()})
	if err != nil {
		return nil, err
	}
	st, err := store.Open(name, clk, s.t.kvStore(w))
	if err != nil {
		return nil, errors.Join(err, w.Close())
	}
	return st, nil
}

// startServer builds server i as wlsd ships it: replicated sessions with
// ring-placed secondaries, no admission queue, no resilience layer, the
// repo's own tracing off.
func (s *sut) startServer(i int, cfg cluster.Config, bus gossip.Bus) error {
	name := "server-" + strconv.Itoa(i+1)
	tr, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &server{name: name, tr: tr}
	s.servers = append(s.servers, srv)
	srv.member = cluster.NewMember(cfg, clk, bus, cluster.MemberInfo{
		Name:    name,
		Addr:    tr.Addr(),
		Machine: "machine-" + strconv.Itoa(i+1),
	})
	registry := rmi.NewRegistry(s.t.node(tr, spReplicate, s.proxyTr.Addr()), srv.member, nil)
	srv.member.Start()

	srv.txlog, err = tx.OpenFileLog(filepath.Join(s.dir, name+".tlog"), true)
	if err != nil {
		return err
	}
	srv.txm = tx.NewManager(name, clk, floorLog{Log: srv.txlog, d: s.dev}, nil)
	registry.Register(srv.txm.Service())

	srv.web = servlet.NewEngine(registry, servlet.Config{})
	views := partition.NewViews(partition.Config{Seed: 1})
	partition.Attach(views, srv.member, servlet.ServiceName)
	srv.web.SetPartitions(views)
	s.deploy(srv)
	return nil
}

// converge waits until every member sees every servlet engine and every
// ring holds all servers.
func (s *sut) converge() error {
	deadline := now() + int64(5*time.Second)
	for {
		ok := true
		for _, srv := range s.servers {
			if len(srv.member.OffersOf(servlet.ServiceName)) != numServers {
				ok = false
			}
			if v := srv.web.Sessions().Partitions().Current(); v == nil || srv.web.Sessions().PartitionStats().Members != numServers {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if now() > deadline {
			return errors.New("cluster membership did not converge within 5s")
		}
		clk.Sleep(time.Millisecond)
	}
}

// warmConns opens every transport connection one at a time — proxy to each
// server, then each ordered server pair — with the built-in cluster-view
// call, so the transport's simultaneous-open race (ROADMAP item 1, outside
// this benchmark's paths) cannot fire in a timed window. If it ever does,
// webtier.failovers_per_kreq and the failed count show it.
func (s *sut) warmConns(proxyNode rmi.Node) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dial := func(from rmi.Node, to string) error {
		if err := rmi.NewExternalClient(from, clk, time.Hour, to).Refresh(ctx); err != nil {
			return fmt.Errorf("warm %s -> %s: %w", from.Addr(), to, err)
		}
		return nil
	}
	for _, srv := range s.servers {
		if err := dial(proxyNode, srv.tr.Addr()); err != nil {
			return err
		}
	}
	for _, a := range s.servers {
		for _, b := range s.servers {
			if a == b {
				continue
			}
			if err := dial(a.tr, b.tr.Addr()); err != nil {
				return err
			}
		}
	}
	return nil
}

// preload inserts the catalog and stock rows as one transaction per table,
// so set-up pays two flushes, not one per row.
func (s *sut) preload() error {
	se := s.inventory.Session("preload")
	for i := 0; i < numSKUs; i++ {
		sku := skuName(i)
		se.Insert("catalog", sku, map[string]string{"desc": catalogDesc(sku)})
		se.Insert("stock", sku, map[string]string{"last": ""})
	}
	return se.Commit("preload")
}

func skuName(i int) string { return fmt.Sprintf("sku%05d", i) }

// catalogDesc is the deterministic catalog value /browse must return.
func catalogDesc(sku string) string {
	return sku + ": a catalog description long enough to look like a row, not a flag"
}

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// serveHTTP is the handler cmd/wlsd fronts the proxy plug-in with
// (proxy.Route, WLSESSION cookie), plus the request body, which wlsd drops.
func (s *sut) serveHTTP(w http.ResponseWriter, r *http.Request) {
	start := s.t.begin()
	var cookie string
	if c, err := r.Cookie(cookieName); err == nil {
		cookie = c.Value
	}
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body := (*bp)[:0]
	if n := int(r.ContentLength); n > 0 && n <= cap(body) {
		body = body[:n]
		if _, err := io.ReadFull(r.Body, body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	ctx := r.Context()
	var id uint64
	if start != 0 {
		id = reqID(body)
		ctx = context.WithValue(ctx, reqIDKey{}, id)
		s.t.sampleReq(r.URL.Path, cookie, body)
	}
	rstart := s.t.begin()
	resp, err := s.proxy.Route(ctx, r.URL.Path, cookie, body)
	s.t.end(spRoute, id, rstart, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if resp.Cookie != "" {
		http.SetCookie(w, &http.Cookie{Name: cookieName, Value: resp.Cookie, Path: "/"})
	}
	h := w.Header()
	h.Set("X-Served-By", resp.ServedBy)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(resp.Body)))
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body) // a vanished client shows as a generator error
	s.t.end(spHTTP, id, start, 0)
}

// engine returns the servlet engine of the named server.
func (s *sut) engine(name string) *servlet.Engine {
	for _, srv := range s.servers {
		if srv.name == name {
			return srv.web
		}
	}
	return nil
}

// close stops everything start started and waits for it.
func (s *sut) close() error {
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Close())
		if err := <-s.httpDone; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, srv := range s.servers {
		if srv.member != nil {
			srv.member.Stop()
		}
	}
	if s.proxyTr != nil {
		errs = append(errs, s.proxyTr.Close())
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.tr.Close())
		if srv.txlog != nil {
			errs = append(errs, srv.txlog.Close())
		}
	}
	for _, st := range []*store.Store{s.orders, s.inventory} {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	errs = append(errs, s.dev.close())
	return errors.Join(errs...)
}
