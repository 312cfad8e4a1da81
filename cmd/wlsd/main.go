// Command wlsd hosts a WLS cluster in one process and serves it over real
// HTTP: application traffic goes through the Fig 2 proxy plug-in on one
// port, and an admin endpoint exposes cluster state and metrics for
// cmd/wlsadmin.
//
//	wlsd -servers 3 -http :7001 -admin :7002 [-data /var/wls] [-trace-sample 0.01]
//	     [-queue-workers 8] [-resilient]
//
// -queue-workers N gives every server an execute queue: N requests run
// at once, 64 more wait in line, and the next is refused with BUSY (0, the
// default, admits everything).
//
// Then:
//
//	curl localhost:7001/hello
//	curl -c c.txt -b c.txt localhost:7001/count   # replicated session
//	curl -d 'any body' localhost:7001/echo         # POST bodies reach the servlet (1 MiB at most)
//	wlsadmin -addr localhost:7002 servers
//	wlsadmin -addr localhost:7002 crash server-2  # watch sessions survive
//
// (Cross-process clustering would need a UDP membership bus; this daemon
// hosts all servers in one process — the protocols between them are the
// same ones the test suite and benchmarks exercise. See README.)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"

	"wls"
	"wls/internal/ejb"
	"wls/internal/metrics"
	"wls/internal/rmi"
	"wls/internal/servlet"
	"wls/internal/trace"
)

func main() {
	servers := flag.Int("servers", 3, "cluster size")
	httpAddr := flag.String("http", ":7001", "application HTTP address (proxy plug-in)")
	adminAddr := flag.String("admin", ":7002", "admin HTTP address")
	dataDir := flag.String("data", "", "data directory for the servers' middle-tier stores (optional)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests to trace (0 disables, 1 traces all)")
	queueWorkers := flag.Int("queue-workers", 0, "requests each server runs at once, with 64 more in line (0 disables admission control)")
	resilient := flag.Bool("resilient", false, "enable client-side retry budget, backoff and per-server circuit breakers")
	flag.Parse()

	opts := wls.Options{
		Servers:     *servers,
		RealClock:   true,
		DataDir:     *dataDir,
		TraceSample: *traceSample,
		Resilience:  *resilient,
	}
	if *queueWorkers > 0 {
		opts.Admission = &rmi.QueueConfig{Workers: *queueWorkers, QueueLen: 64}
	}
	cluster, err := wls.New(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	deployDemoApp(cluster)
	cluster.AwaitConverged()

	// Application traffic: one HTTP listener fronting the proxy plug-in.
	proxy := cluster.ProxyPlugin("webserver:80")
	appMux := http.NewServeMux()
	appMux.Handle("/", newAppHandler(proxy.Route))

	adminMux := newAdminMux(cluster)

	go func() {
		log.Printf("wlsd: admin on %s", *adminAddr)
		if err := http.ListenAndServe(*adminAddr, adminMux); err != nil {
			log.Fatal(err)
		}
	}()
	log.Printf("wlsd: %d-server cluster serving on %s", *servers, *httpAddr)
	if err := http.ListenAndServe(*httpAddr, appMux); err != nil {
		log.Fatal(err)
	}
}

// newAppHandler is the application listener's handler: the WLSESSION cookie
// and the request body (at most servlet.MaxHTTPBody, 413 beyond) go to
// route — the proxy plug-in's Route — and its reply comes back with the
// rewritten cookie.
func newAppHandler(route func(ctx context.Context, path, cookie string, body []byte) (servlet.Response, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cookie := servlet.CookieValue(r.Header, sessionCookie)
		body, ok := servlet.ReadHTTPBody(w, r)
		if !ok {
			return
		}
		resp, err := route(r.Context(), r.URL.Path, cookie, body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if err := servlet.WriteHTTPResponse(w, sessionCookie, resp); err != nil {
			log.Printf("wlsd: %s %s: reply not delivered: %v", r.Method, r.URL.Path, err)
		}
	})
}

// sessionCookie is the HTTP cookie the session cookie of §3.2 rides in.
const sessionCookie = "WLSESSION"

// newAdminMux builds the admin surface for cmd/wlsadmin.
func newAdminMux(cluster *wls.Cluster) *http.ServeMux {
	adminMux := http.NewServeMux()
	adminMux.HandleFunc("/admin/servers", func(w http.ResponseWriter, r *http.Request) {
		type info struct {
			Name, Addr string
			Alive      int
		}
		var out []info
		for _, s := range cluster.Servers {
			out = append(out, info{s.Name, s.Addr(), len(s.Member().Alive())})
		}
		json.NewEncoder(w).Encode(out)
	})
	adminMux.HandleFunc("/admin/metrics", func(w http.ResponseWriter, r *http.Request) {
		for _, s := range cluster.Servers {
			fmt.Fprintf(w, "## %s\n", s.Name)
			fmt.Fprint(w, metrics.RenderText(s.Metrics().Snapshot()))
		}
	})
	adminMux.HandleFunc("/admin/trace", func(w http.ResponseWriter, r *http.Request) {
		ring := cluster.Traces()
		if ring == nil {
			http.Error(w, "tracing disabled; restart wlsd with -trace-sample > 0", http.StatusNotFound)
			return
		}
		spans := ring.Snapshot()
		switch r.URL.Query().Get("format") {
		case "", "text":
			fmt.Fprint(w, trace.CanonicalDump(spans))
		case "jsonl":
			j := trace.NewJSONL(w)
			for _, d := range spans {
				j.ExportSpan(d)
			}
			if err := j.Err(); err != nil {
				log.Printf("wlsd: %s %s: reply not delivered: %v", r.Method, r.URL.Path, err)
			}
		case "chrome":
			if err := trace.WriteChromeTrace(w, spans); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "format must be text, jsonl or chrome", http.StatusBadRequest)
		}
	})
	adminMux.HandleFunc("/admin/crash", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimSpace(r.URL.Query().Get("server"))
		if cluster.Server(name) == nil {
			http.Error(w, "no such server", http.StatusNotFound)
			return
		}
		cluster.Crash(name)
		fmt.Fprintf(w, "crashed %s\n", name)
	})
	adminMux.HandleFunc("/admin/restart", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimSpace(r.URL.Query().Get("server"))
		if cluster.Server(name) == nil {
			http.Error(w, "no such server", http.StatusNotFound)
			return
		}
		s, err := cluster.Restart(name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		deployDemoAppOn(cluster, s)
		fmt.Fprintf(w, "restarted %s\n", name)
	})
	adminMux.HandleFunc("/admin/partitions", func(w http.ResponseWriter, r *http.Request) {
		sample := 4096
		if q := r.URL.Query().Get("sample"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				http.Error(w, "bad sample", http.StatusBadRequest)
				return
			}
			sample = n
		}
		json.NewEncoder(w).Encode(cluster.PartitionsReport(sample))
	})
	adminMux.HandleFunc("/admin/addserver", func(w http.ResponseWriter, r *http.Request) {
		s, err := cluster.AddServer()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		deployDemoAppOn(cluster, s)
		fmt.Fprintf(w, "added %s (%s)\n", s.Name, s.Addr())
	})
	return adminMux
}

// deployDemoApp installs the demo servlets and beans on every server.
func deployDemoApp(cluster *wls.Cluster) {
	for _, s := range cluster.Servers {
		deployDemoAppOn(cluster, s)
	}
}

func deployDemoAppOn(cluster *wls.Cluster, s *wls.Server) {
	name := s.Name
	s.Web.Handle("/hello", func(r *servlet.Request) servlet.Response {
		return servlet.Response{Body: []byte("hello from " + name + "\n")}
	})
	s.Web.Handle("/echo", func(r *servlet.Request) servlet.Response {
		return servlet.Response{Body: r.Body}
	})
	s.Web.Handle("/count", func(r *servlet.Request) servlet.Response {
		n, _ := strconv.Atoi(r.Session.Get("n"))
		n++
		r.Session.Set("n", strconv.Itoa(n))
		return servlet.Response{Body: []byte(fmt.Sprintf("count=%d (session %x)\n", n, r.Session.ID))}
	})
	s.EJB.DeployStateless(ejb.StatelessSpec{
		Name: "PingBean",
		Methods: map[string]ejb.StatelessMethod{
			"ping": func(ctx context.Context, call *rmi.Call) ([]byte, error) {
				return []byte("pong from " + name), nil
			},
		},
	})
}
