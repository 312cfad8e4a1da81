package main

import (
	"encoding/binary"
	"strconv"

	"wls/internal/servlet"
)

// Every request body is 16 bytes: an 8-byte big-endian request id, then an
// 8-byte payload (echo bytes, a cart item, or a SKU). The id is how the
// server-side seams tag their spans — the servlet API carries no context —
// and it is sent traced or not, so both runs execute the same bytes.
const (
	idLen   = 8
	bodyLen = 16
)

func reqID(body []byte) uint64 {
	if len(body) < idLen {
		return 0
	}
	return binary.BigEndian.Uint64(body)
}

// orderKey is the orders row a /checkout with this request id inserts; the
// generator derives the same key to check the reply and the stores.
func orderKey(id uint64) string {
	return "o-" + strconv.FormatUint(id, 16)
}

// deploy installs the application on one server.
func (s *sut) deploy(srv *server) {
	srv.web.Handle("/echo", s.servlet(func(r *servlet.Request, id uint64) servlet.Response {
		return servlet.Response{Body: r.Body}
	}))

	srv.web.Handle("/cart", s.servlet(func(r *servlet.Request, id uint64) servlet.Response {
		n, _ := strconv.Atoi(r.Session.Get("n")) // absent on a new session: 0
		n++
		r.Session.Set("n", strconv.Itoa(n))
		r.Session.Set("item", string(r.Body[idLen:]))
		return servlet.Response{Body: strconv.AppendInt(nil, int64(n), 10)}
	}))

	srv.web.Handle("/browse", s.servlet(func(r *servlet.Request, id uint64) servlet.Response {
		start := s.t.begin()
		row, ok := s.inventory.Get("catalog", string(r.Body[idLen:]))
		s.t.end(spStoreRead, id, start, 0)
		if !ok {
			return servlet.Response{Status: 404, Body: []byte("no such sku")}
		}
		return servlet.Response{Body: []byte(row.Fields["desc"])}
	}))

	srv.web.Handle("/checkout", s.servlet(func(r *servlet.Request, id uint64) servlet.Response {
		sku := string(r.Body[idLen:])
		key := orderKey(id)
		t := srv.txm.Begin(0)
		// Store.Session takes the store's lock, which a commit in flight
		// holds across its flush; that wait belongs to the store's row.
		start := s.t.begin()
		so := s.orders.Session(t.ID())
		so.Insert("orders", key, map[string]string{"sku": sku, "session": r.Session.ID})
		si := s.inventory.Session(t.ID())
		si.Update("stock", sku, map[string]string{"last": key})
		s.t.end(spStoreStage, id, start, 0)
		err := t.Enlist("orders", s.t.resource(so, id))
		if err == nil {
			err = t.Enlist("inventory", s.t.resource(si, id))
		}
		if err != nil {
			_ = t.Rollback() // nothing is prepared yet; the enlist error is what the client sees
			return servlet.Response{Status: 500, Body: []byte(err.Error())}
		}
		start = s.t.begin()
		err = t.Commit()
		s.t.end(spTxCommit, id, start, 0)
		if err != nil {
			return servlet.Response{Status: 500, Body: []byte(err.Error())}
		}
		return servlet.Response{Body: []byte(key)}
	}))
}

// servlet wraps an application handler with the body check and the
// servlet-handler span.
func (s *sut) servlet(h func(r *servlet.Request, id uint64) servlet.Response) servlet.HandlerFunc {
	return func(r *servlet.Request) servlet.Response {
		if len(r.Body) != bodyLen {
			return servlet.Response{Status: 400, Body: []byte("body must be 16 bytes")}
		}
		id := reqID(r.Body)
		start := s.t.begin()
		resp := h(r, id)
		s.t.end(spServlet, id, start, 0)
		return resp
	}
}
