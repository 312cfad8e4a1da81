package benchtest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"wls"
	"wls/internal/jms"
	"wls/internal/kv"
	"wls/internal/rmi"
	"wls/internal/tuple"
	"wls/internal/wire"
	"wls/internal/wsdl"
)

func init() {
	register(Experiment{ID: "E19", Title: "Conversational Web Services throughput",
		Source: "Fig 4 + §4: conversations with callbacks; in-memory vs durable", Run: runE19})
	register(Experiment{ID: "E20", Title: "Store-and-forward vs transactional RPC through an outage",
		Source: "§4: SAF buffers work for temporarily disconnected systems", Run: runE20})
	register(Experiment{ID: "E21", Title: "Locating in-memory conversations",
		Source: "§4: session affinity inbound + location-embedded IDs for callbacks", Run: runE21})
}

// runE19: request-response operations on a conversation, in-memory vs
// durable state, plus callback round trips.
func runE19() *Table {
	t := &Table{ID: "E19", Title: "Conversation throughput",
		Source:  "§4",
		Columns: []string{"mode", "ops/s", "callbacks/s"},
		Notes:   "durable conversations pay a synced store commit per operation; in-memory conversations trade that cost for loss-on-failure (E19's isolation properties are enforced in the test suite)"}

	for _, durable := range []bool{false, true} {
		c, err := wls.New(wls.Options{Servers: 2, RealClock: true})
		if err != nil {
			panic(err)
		}
		var st *tuple.Store
		if durable {
			dir, _ := os.MkdirTemp("", "e19")
			defer os.RemoveAll(dir)
			// Durability means the state survives a crash: sync every commit.
			st = mustOpenStore(filepath.Join(dir, "conv.store"), kv.Options{SyncEveryCommit: true})
			defer st.Close()
		}
		serverPort := wsdl.NewPort(c.Servers[1].Registry(), st)
		clientPort := wsdl.NewPort(c.Servers[0].Registry(), nil)
		serverPort.Offer(&wsdl.ServiceDef{
			Name:    "Flow",
			Durable: durable,
			Operations: map[string]wsdl.Operation{
				"step": {Kind: wsdl.RequestResponse, Handler: func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
					n, _ := strconv.Atoi(cv.Get("n"))
					cv.Set("n", strconv.Itoa(n+1))
					return []byte(strconv.Itoa(n + 1)), nil
				}},
				"pingback": {Kind: wsdl.RequestResponse, Handler: func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
					return cv.Solicit(context.Background(), "progress", p)
				}},
			},
			Callbacks: map[string]wsdl.OpKind{"progress": wsdl.SolicitResponse},
		})
		c.Settle(2)

		conv, err := clientPort.StartConversation(context.Background(), serverPort.Addr(), "Flow",
			map[string]wsdl.Handler{
				"progress": func(cv *wsdl.Conversation, p []byte) ([]byte, error) { return p, nil },
			})
		if err != nil {
			panic(err)
		}
		const ops = 500
		start := wall.Now()
		for i := 0; i < ops; i++ {
			if _, err := conv.Call(context.Background(), "step", nil); err != nil {
				panic(err)
			}
		}
		opsRate := float64(ops) / wall.Since(start).Seconds()

		const cbs = 200
		start = wall.Now()
		for i := 0; i < cbs; i++ {
			if _, err := conv.Call(context.Background(), "pingback", []byte("x")); err != nil {
				panic(err)
			}
		}
		cbRate := float64(cbs) / wall.Since(start).Seconds()

		mode := "in-memory"
		if durable {
			mode = "durable"
		}
		t.AddRow(mode, fmt.Sprintf("%.0f", opsRate), fmt.Sprintf("%.0f", cbRate))
		c.Stop()
	}
	return t
}

// runE20: one cluster sends work to another; the peer is down for a
// window. SAF buffers and delivers everything; RPC loses the window.
func runE20() *Table {
	t := &Table{ID: "E20", Title: "SAF vs RPC through a peer outage",
		Source:  "§4",
		Columns: []string{"style", "produced", "delivered", "lost", "delivered_exactly_once"},
		Notes:   "the RPC caller sees hard failures during the outage; store-and-forward absorbs it and drains after the heal with exactly-once delivery"}

	const produced = 60
	for _, style := range []string{"rpc", "store-and-forward"} {
		c, err := wls.New(wls.Options{Servers: 2, RealClock: true})
		if err != nil {
			panic(err)
		}
		local, remote := c.Servers[0], c.Servers[1]
		a, b := local.Addr(), remote.Addr()
		var fw *jms.Forwarder
		if style == "store-and-forward" {
			buffer := local.JMS.Queue("saf-buffer")
			fw = jms.NewForwarder(buffer, local.Node(), b, "inbox", c.Clock(), 20*time.Millisecond)
			fw.Start()
		}
		c.Settle(2)

		delivered := func() int { return remote.JMS.Queue("inbox").Len() }
		lost := 0
		for i := 0; i < produced; i++ {
			if i == produced/3 {
				c.Net().SetPartitioned(a, b, true) // outage begins
			}
			if i == 2*produced/3 {
				c.Net().SetPartitioned(a, b, false) // heal
			}
			m := jms.Message{ID: fmt.Sprintf("work-%d", i), Body: []byte("job")}
			switch style {
			case "rpc":
				if _, err := jms.SendRemote(context.Background(), local.Node(), b, "inbox", m); err != nil {
					lost++
				}
			default:
				if _, err := local.JMS.Queue("saf-buffer").Send(m); err != nil {
					lost++
				}
			}
			wall.Sleep(2 * time.Millisecond)
		}
		// Allow the forwarder to drain after the heal.
		deadline := wall.Now().Add(5 * time.Second)
		for style == "store-and-forward" && delivered() < produced && wall.Now().Before(deadline) {
			wall.Sleep(10 * time.Millisecond)
		}
		exactlyOnce := true
		if d := delivered(); d > produced-lost {
			exactlyOnce = false
		}
		t.AddRow(style, produced, delivered(), lost, exactlyOnce)
		if fw != nil {
			fw.Stop()
		}
		c.Stop()
	}
	return t
}

// runE21: callbacks must find the client side of an in-memory
// conversation. With location-embedded IDs they always do; guessing a
// front-end (round robin, as an affinity-less LB would) misroutes.
func runE21() *Table {
	t := &Table{ID: "E21", Title: "Locating in-memory conversations for callbacks",
		Source:  "§4",
		Columns: []string{"technique", "callbacks", "delivered", "misrouted"},
		Notes:   "\"the miracle\": inbound requests locate the server side via affinity; callbacks locate the client side via the location embedded in the conversation ID — guessing fails on a multi-server client"}

	c, err := wls.New(wls.Options{Servers: 4, RealClock: true})
	if err != nil {
		panic(err)
	}
	defer c.Stop()
	// Client-side cluster: ports on servers 1 and 2; service on server 4.
	clientPorts := []*wsdl.Port{
		wsdl.NewPort(c.Servers[0].Registry(), nil),
		wsdl.NewPort(c.Servers[1].Registry(), nil),
	}
	serverPort := wsdl.NewPort(c.Servers[3].Registry(), nil)
	var serverConvs []*wsdl.Conversation
	serverPort.Offer(&wsdl.ServiceDef{
		Name: "Notify",
		Operations: map[string]wsdl.Operation{
			"subscribe": {Kind: wsdl.RequestResponse, Handler: func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
				serverConvs = append(serverConvs, cv)
				return nil, nil
			}},
		},
		Callbacks: map[string]wsdl.OpKind{"event": wsdl.Notification},
	})
	c.Settle(2)

	const convs = 20
	deliveredTo := make(map[string]int)
	for i := 0; i < convs; i++ {
		port := clientPorts[i%2] // conversations spread across the client cluster
		cv, err := port.StartConversation(context.Background(), serverPort.Addr(), "Notify",
			map[string]wsdl.Handler{"event": func(cv *wsdl.Conversation, p []byte) ([]byte, error) {
				deliveredTo[cv.ID]++
				return nil, nil
			}})
		if err != nil {
			panic(err)
		}
		if _, err := cv.Call(context.Background(), "subscribe", nil); err != nil {
			panic(err)
		}
	}

	// Technique 1: location-embedded IDs (the implementation's default).
	delivered := 0
	for _, cv := range serverConvs {
		if err := cv.Send(context.Background(), "event", []byte("tick")); err == nil {
			delivered++
		}
	}
	t.AddRow("conversation-id location", convs, delivered, convs-delivered)

	// Technique 2: an affinity-less response path picks some front end of
	// the client cluster (here: always the first) and delivers the
	// callback there. Conversations living on the other client server are
	// misrouted — the exact failure the paper describes for responses,
	// which never establish affinity.
	delivered2, misrouted := 0, 0
	guess := clientPorts[0].Addr()
	stub := rmi.NewStub(wsdl.ServiceRMIName, c.Servers[3].Node(), rmi.StaticView(guess))
	for _, cv := range serverConvs {
		e := wire.NewEncoder(64)
		e.String(cv.ID)
		e.String("event")
		e.Bytes2([]byte("tick"))
		if _, err := stub.Invoke(context.Background(), "callback", e.Bytes()); err != nil {
			misrouted++
		} else {
			delivered2++
		}
	}
	t.AddRow("affinity-less guess", convs, delivered2, misrouted)
	return t
}
