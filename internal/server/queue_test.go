package server

import (
	"errors"
	"testing"
	"time"

	"rvpsim/internal/exp"
)

func testJob(id string) *job {
	return &job{
		id:       id,
		spec:     exp.JobSpec{Kind: "run", Workload: "go", Predictor: "rvp"},
		enqueued: time.Now(),
	}
}

func TestQueueAdmitUntilFull(t *testing.T) {
	q := newQueue(2, 2, 0)
	if err := q.admit(testJob("a")); err != nil {
		t.Fatalf("admit a: %v", err)
	}
	if err := q.admit(testJob("b")); err != nil {
		t.Fatalf("admit b: %v", err)
	}
	err := q.admit(testJob("c"))
	var adm *admissionError
	if !errors.As(err, &adm) {
		t.Fatalf("admit past limit = %v, want *admissionError", err)
	}
	if adm.reason != "queue_full" {
		t.Fatalf("reason = %q, want queue_full", adm.reason)
	}
	if adm.retryAfter < time.Second || adm.retryAfter > time.Minute {
		t.Fatalf("retryAfter = %v, want clamped to [1s, 60s]", adm.retryAfter)
	}
	if q.depthNow() != 2 {
		t.Fatalf("depth = %d, want 2", q.depthNow())
	}
}

func TestQueueDequeueReopensAdmission(t *testing.T) {
	q := newQueue(1, 1, 0)
	if err := q.admit(testJob("a")); err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := q.admit(testJob("b")); err == nil {
		t.Fatalf("admit past limit succeeded")
	}
	j := <-q.ch
	q.noteDequeue(j, 5*time.Millisecond)
	if err := q.admit(testJob("b")); err != nil {
		t.Fatalf("admit after dequeue: %v", err)
	}
}

func TestQueueShedsOnSlowWaits(t *testing.T) {
	q := newQueue(100, 100, 50*time.Millisecond)
	// Saturate the wait window with waits far past maxWait.
	for i := 0; i < queueWindow; i++ {
		q.noteDequeue(testJob("x"), time.Second)
		q.depth.Add(1) // undo noteDequeue's decrement; only the window matters here
	}
	q.depth.Store(1) // the slow signal only applies while work is queued
	err := q.admit(testJob("a"))
	var adm *admissionError
	if !errors.As(err, &adm) {
		t.Fatalf("admit with slow p99 = %v, want *admissionError", err)
	}
	if adm.reason != "queue_slow" {
		t.Fatalf("reason = %q, want queue_slow", adm.reason)
	}
}

func TestQueueSlowSignalSkippedWhenEmpty(t *testing.T) {
	q := newQueue(100, 100, 50*time.Millisecond)
	for i := 0; i < queueWindow; i++ {
		q.noteDequeue(testJob("x"), time.Second)
		q.depth.Add(1)
	}
	q.depth.Store(0)
	// An empty queue cannot make anyone wait: slow history must not shed.
	if err := q.admit(testJob("a")); err != nil {
		t.Fatalf("admit into empty queue with slow history = %v, want nil", err)
	}
}

func TestQueueSlowSamplesExpire(t *testing.T) {
	q := newQueue(100, 100, 50*time.Millisecond)
	clock := time.Now()
	q.now = func() time.Time { return clock }
	for i := 0; i < queueWindow; i++ {
		q.noteDequeue(testJob("x"), time.Second)
		q.depth.Add(1)
	}
	q.depth.Store(1)
	if err := q.admit(testJob("a")); err == nil {
		t.Fatalf("fresh slow samples did not shed")
	}
	// Past the horizon the stall is history: admission must recover even
	// though no fresh samples have displaced the old ones.
	clock = clock.Add(q.horizon() + time.Second)
	if err := q.admit(testJob("a")); err != nil {
		t.Fatalf("admit after samples expired = %v, want nil", err)
	}
}

func TestQueueForceBypassesAdmission(t *testing.T) {
	// Capacity exceeds the admission limit so recovered jobs fit.
	q := newQueue(1, 3, 0)
	if err := q.admit(testJob("a")); err != nil {
		t.Fatalf("admit: %v", err)
	}
	q.force(testJob("r1"))
	q.force(testJob("r2"))
	if q.depthNow() != 3 {
		t.Fatalf("depth = %d, want 3", q.depthNow())
	}
	if err := q.admit(testJob("b")); err == nil {
		t.Fatalf("admit above limit succeeded after force")
	}
}

func TestQueueP99(t *testing.T) {
	q := newQueue(10, 10, 0)
	if got := q.p99(); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	// 97 fast waits and a 3% slow tail: the ceil-rank p99 must land in
	// the tail.
	for i := 0; i < 97; i++ {
		q.noteDequeue(testJob("x"), time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		q.noteDequeue(testJob("x"), time.Second)
	}
	if got := q.p99(); got != time.Second {
		t.Fatalf("p99 = %v, want 1s (the tail)", got)
	}
}
