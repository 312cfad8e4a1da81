package jms_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"wls/internal/jms"
)

func TestTopicFanOut(t *testing.T) {
	b := memBroker()
	top := b.Topic("prices")
	qa := top.Subscribe("analytics")
	qb := top.Subscribe("audit")
	if _, err := top.Publish(jms.Message{Body: []byte("IBM@85")}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []*jms.Queue{qa, qb} {
		m, err := q.Receive()
		if err != nil || string(m.Body) != "IBM@85" {
			t.Fatalf("receive: %v %q", err, m.Body)
		}
	}
}

func TestTopicSubscriberIsolation(t *testing.T) {
	b := memBroker()
	top := b.Topic("t")
	qa := top.Subscribe("a")
	qb := top.Subscribe("b")
	top.Publish(jms.Message{Body: []byte("x")})
	m, _ := qa.Receive()
	qa.Ack(m.ID) // a consumes; b must still see it
	m2, err := qb.Receive()
	if err != nil || string(m2.Body) != "x" {
		t.Fatal("subscriber b lost its copy")
	}
}

func TestTopicLateSubscriberMissesEarlier(t *testing.T) {
	b := memBroker()
	top := b.Topic("t")
	top.Subscribe("early")
	top.Publish(jms.Message{Body: []byte("1")})
	late := top.Subscribe("late")
	top.Publish(jms.Message{Body: []byte("2")})
	if late.Len() != 1 {
		t.Fatalf("late subscriber sees %d, want 1 (only messages after subscribing)", late.Len())
	}
}

func TestTopicUnsubscribeDiscardsBacklog(t *testing.T) {
	b := memBroker()
	top := b.Topic("t")
	top.Subscribe("s")
	top.Publish(jms.Message{Body: []byte("x")})
	top.Unsubscribe("s")
	if got := top.Subscribers(); len(got) != 0 {
		t.Fatalf("subscribers = %v", got)
	}
	// Re-subscribing starts clean.
	q := top.Subscribe("s")
	if q.Len() != 0 {
		t.Fatal("old backlog survived unsubscribe")
	}
}

func TestDurableSubscriptionSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jms.store")
	st := openStore(t, path)
	b := jms.NewBroker("s1", st, nil)
	top := b.Topic("alerts")
	top.Subscribe("pager")
	top.Publish(jms.Message{Body: []byte("disk full")})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Broker restart: the durable subscription and its backlog are back.
	b2 := jms.NewBroker("s1", openStore(t, path), nil)
	top2 := b2.Topic("alerts")
	if !reflect.DeepEqual(top2.Subscribers(), []string{"pager"}) {
		t.Fatalf("subscribers after restart = %v", top2.Subscribers())
	}
	q := top2.Subscribe("pager")
	m, err := q.Receive()
	if err != nil || string(m.Body) != "disk full" {
		t.Fatalf("durable backlog lost: %v %q", err, m.Body)
	}
}

func TestTopicPublishNoSubscribersIsNoop(t *testing.T) {
	b := memBroker()
	if _, err := b.Topic("empty").Publish(jms.Message{Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
}

func TestTopicIdentityPerName(t *testing.T) {
	b := memBroker()
	if b.Topic("a") != b.Topic("a") {
		t.Fatal("same name should return same topic")
	}
	if b.Topic("a") == b.Topic("b") {
		t.Fatal("different names should differ")
	}
}
