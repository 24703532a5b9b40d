package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// refMedium is the medium before interference was folded lazily: every
// transmission start folds the interference of every in-flight reception at
// every node, and every reception is judged by comparing 10·log10(S/I) with
// the rate threshold. Medium must reproduce it bit for bit. It keeps only
// what decides outcomes (no pooling, no probe).
type refMedium struct {
	k       *sim.Kernel
	cfg     Config
	rssMw   [][]float64
	csMw    float64
	floorMw float64
	noiseMw float64
	nodes   []refNode

	Transmissions, Delivered, Corrupted int
	// judged lists every data or ACK reception judged without a half-duplex
	// failure, so a test can see how close to its threshold each one was.
	judged []refJudged
}

// refJudged is one judged reception: S/I and the rate threshold in dB.
type refJudged struct{ ratio, thrDB float64 }

type refNode struct {
	listener   Listener
	totalMw    float64
	sigMw      float64
	activeSigs []refSig
	tx         *refTx
	busy       bool
	recs       []*refRx
}

type refSig struct {
	tx      *refTx
	powerMw float64
	n       int
}

type refTx struct {
	frame   *Frame
	src     NodeID
	powerMw []float64
	recs    []*refRx
	sig     bool
}

type refRx struct {
	tx          *refTx
	at          NodeID
	powerMw     float64
	interfMaxMw float64
	maxSigs     int
	failed      bool
	det         SignatureDetection
}

func newRefMedium(k *sim.Kernel, rssDBm [][]float64, cfg Config) *refMedium {
	rssMw := make([][]float64, len(rssDBm))
	for i, row := range rssDBm {
		rssMw[i] = make([]float64, len(row))
		for j, dbm := range row {
			rssMw[i][j] = DBmToMw(dbm)
		}
	}
	return &refMedium{k: k, cfg: cfg, rssMw: rssMw, nodes: make([]refNode, len(rssDBm)),
		csMw: DBmToMw(cfg.CSThreshDBm), floorMw: DBmToMw(cfg.DeliverFloorDBm),
		noiseMw: DBmToMw(cfg.NoiseDBm)}
}

func (m *refMedium) Register(n NodeID, l Listener) { m.nodes[n].listener = l }

func (m *refMedium) Transmitting(n NodeID) bool { return m.nodes[n].tx != nil }

func (m *refMedium) Transmit(src NodeID, f *Frame) {
	ns := &m.nodes[src]
	f.Src = src
	m.Transmissions++
	tx := &refTx{frame: f, src: src, powerMw: make([]float64, len(m.nodes))}
	ns.tx = tx
	for _, r := range ns.recs {
		r.failed = true
	}
	sig := f.Kind == Signature
	sigN := 0
	if sig {
		if p, ok := f.Payload.(*SignaturePayload); ok {
			sigN = p.Combined()
		} else {
			sigN = 1
		}
	}
	tx.sig = sig
	var carrier []NodeID
	for j := range m.nodes {
		if NodeID(j) == src {
			continue
		}
		p := m.rssMw[src][j]
		tx.powerMw[j] = p
		dst := &m.nodes[j]
		dst.totalMw += p
		if sig {
			dst.sigMw += p
			dst.activeSigs = append(dst.activeSigs, refSig{tx: tx, powerMw: p, n: sigN})
		}
		for _, r := range dst.recs {
			m.fold(r, dst)
		}
		if dst.listener != nil && p >= m.floorMw {
			r := &refRx{tx: tx, at: NodeID(j), powerMw: p, failed: dst.tx != nil}
			m.fold(r, dst)
			dst.recs = append(dst.recs, r)
			tx.recs = append(tx.recs, r)
		}
		if m.flipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	m.notify(carrier)
	m.k.After(f.AirTime(), func() { m.end(tx) })
}

func (m *refMedium) fold(r *refRx, dst *refNode) {
	var interf float64
	if r.tx.frame.Kind == Signature {
		interf = dst.totalMw - dst.sigMw + m.noiseMw
		n := 0
		for _, s := range dst.activeSigs {
			if s.powerMw >= r.powerMw/10 {
				n += s.n
			}
		}
		if n > r.maxSigs {
			r.maxSigs = n
		}
	} else {
		interf = dst.totalMw - r.powerMw + m.noiseMw
	}
	if interf < m.noiseMw {
		interf = m.noiseMw
	}
	if interf > r.interfMaxMw {
		r.interfMaxMw = interf
	}
}

func (m *refMedium) end(tx *refTx) {
	m.nodes[tx.src].tx = nil
	var carrier []NodeID
	for j := range m.nodes {
		if NodeID(j) == tx.src {
			continue
		}
		dst := &m.nodes[j]
		dst.totalMw -= tx.powerMw[j]
		if dst.totalMw < 0 {
			dst.totalMw = 0
		}
		if tx.sig {
			dst.sigMw -= tx.powerMw[j]
			if dst.sigMw < 0 {
				dst.sigMw = 0
			}
			for i, s := range dst.activeSigs {
				if s.tx == tx {
					dst.activeSigs = append(dst.activeSigs[:i], dst.activeSigs[i+1:]...)
					break
				}
			}
		}
		if m.flipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	type result struct {
		r   *refRx
		ok  bool
		det *SignatureDetection
	}
	var results []result
	for _, r := range tx.recs {
		dst := &m.nodes[r.at]
		for i, x := range dst.recs {
			if x == r {
				dst.recs = append(dst.recs[:i], dst.recs[i+1:]...)
				break
			}
		}
		ok, det := m.judge(r)
		if ok {
			m.Delivered++
		} else {
			m.Corrupted++
		}
		results = append(results, result{r, ok, det})
	}
	m.notify(carrier)
	for _, res := range results {
		m.nodes[res.r.at].listener.FrameReceived(tx.frame, res.ok, res.det)
	}
}

func (m *refMedium) judge(r *refRx) (bool, *SignatureDetection) {
	sinr := 10 * math.Log10(r.powerMw/r.interfMaxMw)
	if r.tx.frame.Kind != Signature {
		if !r.failed {
			m.judged = append(m.judged, refJudged{r.powerMw / r.interfMaxMw, SNRThresholdDB(r.tx.frame.Rate)})
		}
		return !r.failed && sinr >= SNRThresholdDB(r.tx.frame.Rate), nil
	}
	r.det = SignatureDetection{Combined: r.maxSigs, SINRdB: sinr}
	if r.failed || sinr < m.cfg.SigSINRdB {
		return false, &r.det
	}
	return m.k.Rand().Float64() < m.cfg.Detector(r.maxSigs), &r.det
}

func (m *refMedium) flipped(ns *refNode) bool {
	busy := ns.totalMw >= m.csMw
	if busy == ns.busy {
		return false
	}
	ns.busy = busy
	return ns.listener != nil
}

func (m *refMedium) notify(ids []NodeID) {
	for _, id := range ids {
		m.nodes[id].listener.CarrierChanged(m.nodes[id].busy)
	}
}

// diffMedium is what the differential tests drive: Medium or refMedium.
type diffMedium interface {
	Register(NodeID, Listener)
	Transmitting(NodeID) bool
	Transmit(NodeID, *Frame)
}

// eventLog records every listener callback as text, so two media can be
// compared event by event. Frames are identified by their ObsSpan, which
// the tests set to the frame's index in the schedule.
type eventLog struct{ lines []string }

type logListener struct {
	log *eventLog
	id  NodeID
}

func (l logListener) CarrierChanged(busy bool) {
	l.log.lines = append(l.log.lines, fmt.Sprintf("carrier node=%d busy=%v", l.id, busy))
}

func (l logListener) FrameReceived(f *Frame, ok bool, det *SignatureDetection) {
	d := "nil"
	if det != nil {
		d = fmt.Sprintf("{%d %x}", det.Combined, math.Float64bits(det.SINRdB))
	}
	l.log.lines = append(l.log.lines, fmt.Sprintf("rx frame=%d node=%d ok=%v det=%s",
		f.ObsSpan, l.id, ok, d))
}

// scheduled is one frame of a test schedule.
type scheduled struct {
	at    sim.Time
	src   NodeID
	frame Frame
}

// play registers logging listeners on every node, runs the schedule on m and
// returns the callback log. A frame whose sender is still on the air is
// skipped, as a MAC would hold it.
func play(k *sim.Kernel, m diffMedium, n int, sched []scheduled) []string {
	log := &eventLog{}
	for i := 0; i < n; i++ {
		m.Register(NodeID(i), logListener{log: log, id: NodeID(i)})
	}
	for i := range sched {
		s := sched[i]
		k.At(s.at, func() {
			if m.Transmitting(s.src) {
				log.lines = append(log.lines, fmt.Sprintf("skip frame=%d", s.frame.ObsSpan))
				return
			}
			f := s.frame
			m.Transmit(s.src, &f)
		})
	}
	k.Run()
	return log.lines
}

// compareMedia runs sched on Medium and on refMedium with kernels of the
// same seed and fails on the first callback, or counter, that differs.
func compareMedia(t *testing.T, rss [][]float64, cfg Config, seed int64, sched []scheduled) *refMedium {
	t.Helper()
	k1, k2 := sim.New(seed), sim.New(seed)
	m := NewMedium(k1, rss, cfg)
	ref := newRefMedium(k2, rss, cfg)
	got := play(k1, m, len(rss), sched)
	want := play(k2, ref, len(rss), sched)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("callback %d: medium %q, reference %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("medium made %d callbacks, reference %d", len(got), len(want))
	}
	if m.Transmissions != ref.Transmissions || m.Delivered != ref.Delivered ||
		m.Corrupted != ref.Corrupted {
		t.Fatalf("counters: medium tx/delivered/corrupted %d/%d/%d, reference %d/%d/%d",
			m.Transmissions, m.Delivered, m.Corrupted,
			ref.Transmissions, ref.Delivered, ref.Corrupted)
	}
	return ref
}

var diffRates = []Rate{Rate6, Rate9, Rate12, Rate18, Rate24, Rate36, Rate48, Rate54, 1, 10}

// randomFrame draws a data, ACK or signature frame.
func randomFrame(rng *rand.Rand, id int) Frame {
	f := Frame{Dst: Broadcast, ObsSpan: int64(id)}
	switch rng.Intn(5) {
	case 0:
		f.Kind = Signature
		f.Duration = SignatureDuration * sim.Time(1+rng.Intn(4))
		sigs := make([]int, 1+rng.Intn(5))
		f.Payload = &SignaturePayload{Sigs: sigs}
	case 1:
		f.Kind = Ack
		f.Bytes = AckBytes
		f.Rate = diffRates[rng.Intn(len(diffRates))]
	default:
		f.Kind = Data
		f.Bytes = 40 + rng.Intn(1500)
		f.Rate = diffRates[rng.Intn(len(diffRates))]
	}
	return f
}

// TestMediumMatchesReference drives Medium and the eager, log-based
// reference on random RSS matrices with random schedules that mix data, ACK
// and signature frames. Every node transmits often enough that frames start
// while the node is receiving (half-duplex) and that several receptions are
// in flight at each node when one ends out of start order.
func TestMediumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		rss := make([][]float64, n)
		for i := range rss {
			rss[i] = make([]float64, n)
			for j := range rss[i] {
				if i != j {
					rss[i][j] = -45 - rng.Float64()*60 // -45..-105 dBm, some below the floor
				}
			}
		}
		cfg := DefaultConfig()
		var sched []scheduled
		horizon := int64(8 * sim.Millisecond)
		for i := 0; i < 10*n; i++ {
			sched = append(sched, scheduled{
				at:    sim.Time(rng.Int63n(horizon)),
				src:   NodeID(rng.Intn(n)),
				frame: randomFrame(rng, i),
			})
		}
		t.Run(fmt.Sprintf("trial%d_n%d", trial, n), func(t *testing.T) {
			compareMedia(t, rss, cfg, int64(trial), sched)
		})
	}
}

// TestMediumMatchesReferenceNested pins the segment hand-over: node 3
// receives a long frame A, then B, then a strong C that ends first, then B
// ends. C's power was recorded in B's segment; A must still see it when it
// ends, or A would decode a frame C destroyed.
func TestMediumMatchesReferenceNested(t *testing.T) {
	rss := [][]float64{
		{0, -200, -200, -50},
		{-200, 0, -200, -90},
		{-200, -200, 0, -52},
		{-200, -200, -200, 0},
	}
	sched := []scheduled{
		{at: 0, src: 0, frame: Frame{Kind: Data, Dst: 3, Bytes: 1500, Rate: Rate6, ObsSpan: 1}},
		{at: 100 * sim.Microsecond, src: 1, frame: Frame{Kind: Data, Dst: 3, Bytes: 200, Rate: Rate6, ObsSpan: 2}},
		{at: 110 * sim.Microsecond, src: 2, frame: Frame{Kind: Data, Dst: 3, Bytes: 20, Rate: Rate54, ObsSpan: 3}},
	}
	compareMedia(t, rss, DefaultConfig(), 1, sched)
	_, m, recs := newTestMedium(t, rss)
	k := m.Kernel()
	for _, s := range sched {
		f := s.frame
		src := s.src
		k.At(s.at, func() { m.Transmit(src, &f) })
	}
	k.Run()
	if got := recs[3].oks; len(got) != 3 || got[2] {
		t.Fatalf("node 3 outcomes %v: want frame A (last to end) lost to C", got)
	}
}

// TestMediumMatchesReferenceAtThreshold places receptions at and around
// their rate threshold: a sweep of consecutive float64 signal levels through
// the threshold, plus offsets from 1e-14 to 1e-7 dB on either side. Near
// the boundary a linear compare of S/I with 10^(thr/10) and the dB compare
// can disagree by an ulp; Medium must decide every one as the reference
// does, which needs its logarithm fallback inside the guard band.
func TestMediumMatchesReferenceAtThreshold(t *testing.T) {
	cfg := DefaultConfig()
	noiseMw := DBmToMw(cfg.NoiseDBm)
	offsets := []float64{-1e-7, -1e-8, -1e-9, -1e-10, -1e-12, -1e-14,
		1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7} // dB
	const steps = 60 // consecutive signal levels per sweep
	var inBand, below, above, linWrong int
	for _, rate := range diffRates {
		for _, kind := range []FrameKind{Data, Ack} {
			for lvl := -1; lvl < 16; lvl++ {
				// Node 0 sends to every receiver while node 1 interferes over
				// the whole frame. Receiver j hears the interferer at
				// interfDBm and node 0 at the threshold, moved by an ulp step
				// or an offset. Level -1 puts the interferer at -200 dBm, so
				// S/noise itself sits at the threshold: Medium fails a frame
				// below the band at its start, before any interference.
				interfDBm := -100 + 2.5*float64(lvl)
				if lvl < 0 {
					interfDBm = -200
				}
				base := SNRThresholdDB(rate) + MwToDBm(DBmToMw(interfDBm)+noiseMw)
				var signals []float64
				sig := base
				for i := 0; i < steps/2; i++ {
					sig = math.Nextafter(sig, math.Inf(-1))
				}
				for i := 0; i < steps; i++ {
					signals = append(signals, sig)
					sig = math.Nextafter(sig, math.Inf(1))
				}
				for _, off := range offsets {
					signals = append(signals, base+off)
				}
				n := 2 + len(signals)
				rss := make([][]float64, n)
				for i := range rss {
					rss[i] = make([]float64, n)
					for j := range rss[i] {
						rss[i][j] = -200
					}
				}
				for j, s := range signals {
					rss[0][2+j] = s
					rss[1][2+j] = interfDBm
				}
				sched := []scheduled{
					{at: 0, src: 1, frame: Frame{Kind: Data, Dst: Broadcast, Bytes: 1500,
						Rate: Rate6, ObsSpan: 1}},
					{at: sim.Microsecond, src: 0, frame: Frame{Kind: kind, Dst: Broadcast, Bytes: 100,
						Rate: rate, ObsSpan: 2}},
				}
				ref := compareMedia(t, rss, cfg, 1, sched)
				for _, j := range ref.judged {
					lin := math.Pow(10, j.thrDB/10)
					switch r := j.ratio / lin; {
					case math.Abs(r-1) <= sinrGuard:
						inBand++
					case r < 1:
						below++
					default:
						above++
					}
					if (j.ratio >= lin) != (10*math.Log10(j.ratio) >= j.thrDB) {
						linWrong++
					}
				}
			}
		}
	}
	t.Logf("receptions in band %d, below %d, above %d; linear compare alone wrong on %d",
		inBand, below, above, linWrong)
	if inBand == 0 || below == 0 || above == 0 || linWrong == 0 {
		t.Fatal("the sweep no longer covers both sides of the band, the band and a case only the dB compare decides")
	}
}
