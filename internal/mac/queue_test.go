package mac

import (
	"math/rand"
	"reflect"
	"testing"
)

// sliceQueue is the queue before the ring deque: a slice window with a
// prepend for PushFront. Queue must behave exactly like it.
type sliceQueue struct {
	pkts    []*Packet
	cap     int
	onDepth func(int)
}

func (q *sliceQueue) Push(p *Packet) bool {
	if len(q.pkts) >= q.cap {
		return false
	}
	q.pkts = append(q.pkts, p)
	q.onDepth(len(q.pkts))
	return true
}

func (q *sliceQueue) Pop() *Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	p := q.pkts[0]
	q.pkts = q.pkts[1:]
	q.onDepth(len(q.pkts))
	return p
}

func (q *sliceQueue) PushFront(p *Packet) {
	q.pkts = append([]*Packet{p}, q.pkts...)
	q.onDepth(len(q.pkts))
}

func (q *sliceQueue) Peek() *Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	return q.pkts[0]
}

// contents drains a copy of q's order without disturbing it.
func contents(q *Queue) []uint64 {
	var out []uint64
	for i := 0; i < q.n; i++ {
		out = append(out, q.ring[(q.head+i)&(len(q.ring)-1)].Seq)
	}
	return out
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(100)
	seq := uint64(0)
	// Keep 5 packets in flight while the head walks around the ring many
	// times; FIFO order must survive every wrap.
	for i := 0; i < 5; i++ {
		q.Push(&Packet{Seq: seq})
		seq++
	}
	want := uint64(0)
	for i := 0; i < 10*minRing; i++ {
		if got := q.Pop().Seq; got != want {
			t.Fatalf("pop %d: seq %d, want %d", i, got, want)
		}
		want++
		q.Push(&Packet{Seq: seq})
		seq++
	}
	if len(q.ring) != minRing {
		t.Fatalf("ring grew to %d with 5 packets queued", len(q.ring))
	}
	// A drained ring must not keep popped packets alive.
	for q.Pop() != nil {
	}
	for i, p := range q.ring {
		if p != nil {
			t.Fatalf("slot %d still holds packet %d after draining", i, p.Seq)
		}
	}
}

func TestQueueGrowWithWrappedHead(t *testing.T) {
	q := NewQueue(1000)
	// Move the head to the middle of the first ring, then fill it so the
	// packets wrap past the end, then push one more to force growth.
	for i := 0; i < minRing/2; i++ {
		q.Push(&Packet{})
		q.Pop()
	}
	var want []uint64
	for i := 0; i < minRing+1; i++ {
		q.Push(&Packet{Seq: uint64(i)})
		want = append(want, uint64(i))
	}
	if len(q.ring) != 2*minRing {
		t.Fatalf("ring length %d, want %d", len(q.ring), 2*minRing)
	}
	if got := contents(q); !reflect.DeepEqual(got, want) {
		t.Fatalf("after growth: %v, want %v", got, want)
	}
	// Growth through PushFront with a wrapped head keeps the order too.
	q2 := NewQueue(1000)
	for i := 0; i < minRing; i++ {
		q2.PushFront(&Packet{Seq: uint64(minRing - i)})
	}
	q2.PushFront(&Packet{Seq: 0})
	for i := 0; i <= minRing; i++ {
		if got := q2.Pop().Seq; got != uint64(i) {
			t.Fatalf("pop %d after PushFront growth: seq %d", i, got)
		}
	}
}

func TestQueuePushFrontPastBound(t *testing.T) {
	q := NewQueue(2)
	q.Push(&Packet{Seq: 1})
	q.Push(&Packet{Seq: 2})
	if q.Push(&Packet{Seq: 3}) {
		t.Fatal("push beyond cap accepted")
	}
	q.PushFront(&Packet{Seq: 0})
	if q.Len() != 3 || q.Cap() != 2 {
		t.Fatalf("len %d cap %d after PushFront on a full queue, want 3 and 2", q.Len(), q.Cap())
	}
	if q.Push(&Packet{Seq: 4}) {
		t.Fatal("push accepted while over the bound")
	}
	for want := uint64(0); want < 3; want++ {
		if got := q.Pop().Seq; got != want {
			t.Fatalf("pop seq %d, want %d", got, want)
		}
	}
}

// TestQueueMatchesSliceQueue drives Queue and the slice queue with the same
// random operation sequence and compares every result and OnDepth call.
func TestQueueMatchesSliceQueue(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		bound := 1 + rng.Intn(60)
		var gotDepth, wantDepth []int
		q := NewQueue(bound)
		q.OnDepth = func(d int) { gotDepth = append(gotDepth, d) }
		ref := &sliceQueue{cap: bound, onDepth: func(d int) { wantDepth = append(wantDepth, d) }}
		seq := uint64(0)
		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				p := &Packet{Seq: seq}
				seq++
				if got, want := q.Push(p), ref.Push(p); got != want {
					t.Fatalf("trial %d op %d: Push = %v, want %v", trial, op, got, want)
				}
			case r < 8:
				if got, want := q.Pop(), ref.Pop(); got != want {
					t.Fatalf("trial %d op %d: Pop = %v, want %v", trial, op, got, want)
				}
			case r < 9:
				if p := ref.Peek(); p != nil && rng.Intn(2) == 0 {
					// Retransmission: pop the head and put it back.
					q.PushFront(q.Pop())
					ref.PushFront(ref.Pop())
				} else {
					p := &Packet{Seq: seq}
					seq++
					q.PushFront(p)
					ref.PushFront(p)
				}
			default:
				if got, want := q.Peek(), ref.Peek(); got != want {
					t.Fatalf("trial %d op %d: Peek = %v, want %v", trial, op, got, want)
				}
			}
			if q.Len() != len(ref.pkts) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, q.Len(), len(ref.pkts))
			}
		}
		if !reflect.DeepEqual(gotDepth, wantDepth) {
			t.Fatalf("trial %d: OnDepth sequences differ (%d vs %d calls)", trial, len(gotDepth), len(wantDepth))
		}
	}
}

// TestQueueSteadyStateAllocs gates the ring: once it has grown to the
// backlog, a Push/Pop/PushFront retry cycle allocates nothing.
func TestQueueSteadyStateAllocs(t *testing.T) {
	q := NewQueue(0)
	pkts := make([]*Packet, 600)
	for i := range pkts {
		pkts[i] = &Packet{Seq: uint64(i)}
		q.Push(pkts[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		p := q.Pop()
		q.PushFront(p) // retry
		q.Pop()
		q.Push(pkts[i%len(pkts)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop/PushFront cycle allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkQueueChurn is the Fig 14 queue pattern: a deep backlog served
// from the head with one retry in four put back at the front.
func BenchmarkQueueChurn(b *testing.B) {
	q := NewQueue(0)
	pkts := make([]*Packet, 1024)
	for i := range pkts {
		pkts[i] = &Packet{Seq: uint64(i)}
		q.Push(pkts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := q.Pop()
		if i%4 == 0 {
			q.PushFront(p)
			p = q.Pop()
		}
		q.Push(pkts[i%len(pkts)])
		_ = p
	}
}
