package phy

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Medium is the shared radio channel. All methods must be called from inside
// the simulation event loop (the kernel is single-threaded).
type Medium struct {
	k     *sim.Kernel
	cfg   Config
	rss   [][]float64 // rss[i][j]: dBm received at j when i transmits
	rssMw [][]float64 // rss converted to mW once; Transmit is pow-free
	nodes []nodeState

	csMw    float64
	floorMw float64
	noiseMw float64

	// Counters for tests and reporting.
	Transmissions int
	Delivered     int
	Corrupted     int
	// FPClamps counts floating-point guards that changed the medium's state:
	// a node's summed power (total or signature share) pulled back up to
	// zero, or a reception's worst-case interference pulled up to the noise
	// floor. Each is residue from adding and later subtracting the same
	// powers in another order.
	FPClamps int

	probe Probe

	// thr caches each data rate's SINR threshold in dB and as a linear band,
	// so judging a reception needs no logarithm away from the boundary.
	thr []rateThreshold

	// Free lists. Transmissions and receptions churn once per frame; pooling
	// them (with their reception lists) keeps the per-frame path
	// allocation-free in steady state. The scratch stacks below are
	// pools too, but stack-shaped: Transmit re-enters itself when a notified
	// listener reacts by transmitting, so each nesting level pops its own
	// buffer and pushes it back when done.
	txFree      []*transmission
	rxFree      []*reception
	carrierFree [][]NodeID
}

// Probe observes medium activity for the observability layer. Callbacks run
// inside the event loop after the medium state has settled; implementations
// must not transmit or block. The medium stays obs-agnostic: obs implements
// this interface, nothing here imports it.
type Probe interface {
	// TxStart fires when a frame goes on the air.
	TxStart(f *Frame, now sim.Time)
	// TxEnd fires when the frame leaves the air, before receptions are
	// judged and listeners notified.
	TxEnd(f *Frame, now sim.Time)
	// RxOutcome fires once per judged reception with its decode outcome.
	RxOutcome(f *Frame, at NodeID, ok bool, now sim.Time)
}

// SetProbe installs the activity probe (nil disables, the default). The
// disabled cost is one nil check per transmission start/end.
func (m *Medium) SetProbe(p Probe) { m.probe = p }

type nodeState struct {
	listener Listener
	// totalMw is the summed received power (mW) of all active transmissions
	// heard at this node, excluding its own.
	totalMw float64
	// sigMw is the portion of totalMw contributed by Signature frames.
	sigMw float64
	// activeSigs tracks concurrent signature transmissions audible here,
	// with their received power: the combined-detection load for a
	// correlator counts only signatures comparable in power to its target
	// (weaker ones vanish under the spreading gain).
	activeSigs []sigRec
	tx         *transmission
	busy       bool
	// dataRecs holds the in-flight data and ACK receptions that can still
	// decode (not failed) in start order. Reception i's segment is the
	// largest totalMw seen from its start until the next one started, plus
	// the segments of later receptions that ended before it. dataSeg[i]
	// holds it for all but the newest reception, whose segment is segTail
	// (kept here so a transmission start touches no other memory). Their
	// interference is folded lazily from these (retireData).
	dataRecs []*reception
	dataSeg  []float64
	segTail  float64
	// sigRecs holds every in-flight signature reception, folded eagerly
	// because its interference depends on sigMw and activeSigs.
	sigRecs []*reception
}

type sigRec struct {
	tx      *transmission
	powerMw float64
	n       int
}

// combinedSigsNear sums the signature counts of active transmissions whose
// power is within 10 dB of the target's.
func (ns *nodeState) combinedSigsNear(targetMw float64) int {
	total := 0
	floor := targetMw / 10
	for _, r := range ns.activeSigs {
		if r.powerMw >= floor {
			total += r.n
		}
	}
	return total
}

type transmission struct {
	frame *Frame
	src   NodeID
	recs  []*reception
	sig   bool
	sigN  int
	// end is built once per pooled struct and rescheduled on every reuse, so
	// the air-time timer costs no closure allocation per frame.
	end func()
}

type reception struct {
	tx      *transmission
	at      NodeID
	powerMw float64
	// interfMaxMw is the worst instantaneous interference-plus-noise (mW)
	// observed during the frame. For Signature frames, signature-frame power
	// is excluded (orthogonal codes) and maxSigs tracks the combination load;
	// the first is folded at every transmission start, the second at every
	// signature start. For data and ACK frames it is set once, when the frame
	// ends, from the node's segments.
	interfMaxMw float64
	maxSigs     int
	// failed marks a reception lost before its end: a half-duplex
	// violation, or (data and ACK frames) a signal that misses the rate
	// threshold even over bare noise, so no interference can matter.
	failed bool
	// ok is the outcome, set when the frame ends.
	ok bool
	// det is the signature-detection report handed to the listener, embedded
	// here so judging a signature frame allocates nothing. The pointer is
	// only valid during the FrameReceived callback (the reception recycles
	// right after), and no listener retains it.
	det SignatureDetection
}

// NewMedium builds a medium over the given RSS matrix (dBm, indexed
// [src][dst]; the diagonal is ignored). The matrix is retained, not copied.
func NewMedium(k *sim.Kernel, rssDBm [][]float64, cfg Config) *Medium {
	n := len(rssDBm)
	for i, row := range rssDBm {
		if len(row) != n {
			panic(fmt.Sprintf("phy: rss row %d has %d entries, want %d", i, len(row), n))
		}
	}
	if cfg.Detector == nil {
		cfg.Detector = DefaultDetector
	}
	// The RSS matrix is fixed for the medium's lifetime, so the dBm→mW
	// conversion (a pow per pair) runs once here instead of on every
	// transmission's per-node loop.
	rssMw := make([][]float64, n)
	for i, row := range rssDBm {
		rssMw[i] = make([]float64, n)
		for j, dbm := range row {
			rssMw[i][j] = DBmToMw(dbm)
		}
	}
	return &Medium{
		k:       k,
		cfg:     cfg,
		rss:     rssDBm,
		rssMw:   rssMw,
		nodes:   make([]nodeState, n),
		csMw:    DBmToMw(cfg.CSThreshDBm),
		floorMw: DBmToMw(cfg.DeliverFloorDBm),
		noiseMw: DBmToMw(cfg.NoiseDBm),
	}
}

// allocTx returns a pooled transmission with its reception list ready for
// reuse.
func (m *Medium) allocTx() *transmission {
	if n := len(m.txFree) - 1; n >= 0 {
		tx := m.txFree[n]
		m.txFree[n] = nil
		m.txFree = m.txFree[:n]
		return tx
	}
	tx := &transmission{}
	tx.end = func() { m.endTransmission(tx) }
	return tx
}

func (m *Medium) releaseTx(tx *transmission) {
	tx.frame = nil
	tx.recs = tx.recs[:0]
	m.txFree = append(m.txFree, tx)
}

func (m *Medium) allocRx() *reception {
	if n := len(m.rxFree) - 1; n >= 0 {
		r := m.rxFree[n]
		m.rxFree[n] = nil
		m.rxFree = m.rxFree[:n]
		*r = reception{}
		return r
	}
	return new(reception)
}

func (m *Medium) releaseRx(r *reception) {
	r.tx = nil
	m.rxFree = append(m.rxFree, r)
}

// popCarrier/pushCarrier manage the carrier-notification scratch as a stack:
// nested Transmit calls (a listener transmitting in reaction to a carrier
// flip) each get their own buffer.
func (m *Medium) popCarrier() []NodeID {
	if n := len(m.carrierFree) - 1; n >= 0 {
		buf := m.carrierFree[n]
		m.carrierFree = m.carrierFree[:n]
		return buf
	}
	return make([]NodeID, 0, len(m.nodes))
}

func (m *Medium) pushCarrier(buf []NodeID) {
	m.carrierFree = append(m.carrierFree, buf[:0])
}

// NumNodes returns the number of radios on the medium.
func (m *Medium) NumNodes() int { return len(m.nodes) }

// Kernel returns the simulation kernel driving the medium.
func (m *Medium) Kernel() *sim.Kernel { return m.k }

// Config returns the medium's parameters.
func (m *Medium) Config() Config { return m.cfg }

// Register installs the listener for a node. At most one listener per node.
func (m *Medium) Register(n NodeID, l Listener) {
	if m.nodes[n].listener != nil {
		panic(fmt.Sprintf("phy: node %d already has a listener", n))
	}
	m.nodes[n].listener = l
}

// RSS returns the received signal strength (dBm) at dst when src transmits.
func (m *Medium) RSS(src, dst NodeID) float64 { return m.rss[src][dst] }

// SNRdB returns the interference-free SNR of the src→dst channel.
func (m *Medium) SNRdB(src, dst NodeID) float64 {
	return m.rss[src][dst] - m.cfg.NoiseDBm
}

// InRange reports whether dst can decode a frame from src at the given rate
// with no interference present.
func (m *Medium) InRange(src, dst NodeID, rate Rate) bool {
	return m.rss[src][dst] >= m.cfg.DeliverFloorDBm &&
		m.SNRdB(src, dst) >= SNRThresholdDB(rate)
}

// Hears reports whether dst's carrier sense detects src's transmissions.
func (m *Medium) Hears(src, dst NodeID) bool {
	return m.rss[src][dst] >= m.cfg.CSThreshDBm
}

// Busy reports the carrier-sense state at n: energy from other transmitters
// above the CS threshold, or n itself transmitting.
func (m *Medium) Busy(n NodeID) bool {
	return m.nodes[n].tx != nil || m.nodes[n].totalMw >= m.csMw
}

// Transmitting reports whether n is currently transmitting.
func (m *Medium) Transmitting(n NodeID) bool { return m.nodes[n].tx != nil }

// Transmit puts a frame on the air from src. The frame occupies the medium
// for its AirTime; reception outcomes are delivered to listeners when it
// ends. Transmitting while already transmitting panics (a MAC bug).
func (m *Medium) Transmit(src NodeID, f *Frame) {
	ns := &m.nodes[src]
	if ns.tx != nil {
		panic(fmt.Sprintf("phy: node %d transmit while transmitting (%v over %v)",
			src, f.Kind, ns.tx.frame.Kind))
	}
	f.Src = src
	m.Transmissions++
	tx := m.allocTx()
	tx.frame = f
	tx.src = src
	ns.tx = tx

	// Half-duplex: starting a transmission destroys anything the node was
	// receiving. Failed data receptions need no interference, so they leave
	// the node's list.
	for _, r := range ns.dataRecs {
		r.failed = true
	}
	clear(ns.dataRecs)
	ns.dataRecs, ns.dataSeg = ns.dataRecs[:0], ns.dataSeg[:0]
	for _, r := range ns.sigRecs {
		r.failed = true
	}

	sig := f.Kind == Signature
	var sigN int
	if sig {
		if p, ok := f.Payload.(*SignaturePayload); ok {
			sigN = p.Combined()
		} else {
			sigN = 1
		}
	}
	tx.sig, tx.sigN = sig, sigN
	// A data or ACK reception whose S/noise is already below the threshold
	// band cannot decode: its interference-plus-noise is at least noise, so
	// its S/I at the end would be below the band too. It is failed at once.
	var lo float64
	if !sig {
		lo = m.threshold(f.Rate).lo
	}

	rowMw := m.rssMw[src]
	carrier := m.popCarrier()
	for j := range m.nodes {
		if NodeID(j) == src {
			continue
		}
		p := rowMw[j]
		dst := &m.nodes[j]
		dst.totalMw += p
		if sig {
			dst.sigMw += p
			dst.activeSigs = append(dst.activeSigs, sigRec{tx: tx, powerMw: p, n: sigN})
		}
		// Raise the observed interference for every in-flight reception:
		// signature receptions fold now, data receptions only record the new
		// total in the newest reception's segment.
		for _, r := range dst.sigRecs {
			m.foldSignature(r, dst, sig)
		}
		if len(dst.dataRecs) > 0 && dst.totalMw > dst.segTail {
			dst.segTail = dst.totalMw
		}
		// Start a reception if the frame is strong enough to matter.
		if dst.listener != nil && p >= m.floorMw {
			r := m.allocRx()
			r.tx, r.at, r.powerMw, r.failed = tx, NodeID(j), p, dst.tx != nil
			if sig {
				m.foldSignature(r, dst, true)
				dst.sigRecs = append(dst.sigRecs, r)
			} else if r.failed || p/m.noiseMw < lo {
				r.failed = true
			} else {
				if n := len(dst.dataSeg); n > 0 {
					dst.dataSeg[n-1] = dst.segTail
				}
				dst.dataRecs = append(dst.dataRecs, r)
				dst.dataSeg = append(dst.dataSeg, 0) // set from segTail when a newer one starts
				dst.segTail = dst.totalMw
			}
			tx.recs = append(tx.recs, r)
		}
		if m.carrierFlipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	if m.probe != nil {
		m.probe.TxStart(f, m.k.Now())
	}
	// Notify only after the medium state has fully settled: a listener may
	// react by transmitting, which re-enters this method.
	m.notifyCarrier(carrier)
	m.pushCarrier(carrier)

	m.k.After(f.AirTime(), tx.end).SetSource(sim.SrcPHY)
}

// foldSignature updates a signature reception's worst-case interference
// and, when sigStart reports that a signature just started, its combination
// load from the current state at node dst. The load counts active
// signatures, which only a signature start can add.
func (m *Medium) foldSignature(r *reception, dst *nodeState, sigStart bool) {
	// Orthogonal spreading: other signatures do not count as noise, but the
	// combination load of comparably strong ones does.
	m.raiseInterference(r, dst.totalMw-dst.sigMw+m.noiseMw)
	if !sigStart {
		return
	}
	if n := dst.combinedSigsNear(r.powerMw); n > r.maxSigs {
		r.maxSigs = n
	}
}

// retireData removes a data or ACK reception that has not failed from its
// node's list and sets its worst-case interference.
//
// Folding eagerly would evaluate (T − p) + noise, clamped to noise, at every
// transmission start during the frame, where T is the node's totalMw then,
// and keep the maximum. Rounding to nearest is monotone, so that expression
// is monotone in T and its maximum is the expression at the largest T. The
// largest T during the frame is the maximum of the segments from this
// reception to the newest one: each transmission start lands in the newest
// segment, and a reception that ends hands its segment to the one before it.
func (m *Medium) retireData(dst *nodeState, r *reception) {
	recs, seg := dst.dataRecs, dst.dataSeg
	last := len(recs) - 1
	seg[last] = dst.segTail
	i := 0
	for recs[i] != r {
		i++
	}
	maxT := seg[i]
	for _, t := range seg[i+1:] {
		if t > maxT {
			maxT = t
		}
	}
	m.raiseInterference(r, maxT-r.powerMw+m.noiseMw)
	if i > 0 && seg[i] > seg[i-1] {
		seg[i-1] = seg[i]
	}
	copy(recs[i:], recs[i+1:])
	copy(seg[i:], seg[i+1:])
	recs[last] = nil
	dst.dataRecs, dst.dataSeg = recs[:last], seg[:last]
	if last > 0 {
		dst.segTail = seg[last-1]
	}
}

// raiseInterference folds one interference-plus-noise level into r's worst
// case. A level below the noise floor is FP residue and counts as the floor;
// the clamp changes r only while its worst case is still unset.
func (m *Medium) raiseInterference(r *reception, interf float64) {
	if interf < m.noiseMw { // guard against FP residue
		interf = m.noiseMw
		if r.interfMaxMw < interf {
			m.FPClamps++
		}
	}
	if interf > r.interfMaxMw {
		r.interfMaxMw = interf
	}
}

func (m *Medium) endTransmission(tx *transmission) {
	sig := tx.sig
	m.nodes[tx.src].tx = nil
	// The RSS row is fixed, so each node loses exactly the power the start
	// added.
	rowMw := m.rssMw[tx.src]
	carrier := m.popCarrier()
	for j := range m.nodes {
		if NodeID(j) == tx.src {
			continue
		}
		dst := &m.nodes[j]
		p := rowMw[j]
		dst.totalMw -= p
		if dst.totalMw < 0 { // guard against FP residue
			dst.totalMw = 0
			m.FPClamps++
		}
		if sig {
			dst.sigMw -= p
			if dst.sigMw < 0 {
				dst.sigMw = 0
				m.FPClamps++
			}
			for i, r := range dst.activeSigs {
				if r.tx == tx {
					dst.activeSigs[i] = dst.activeSigs[len(dst.activeSigs)-1]
					dst.activeSigs = dst.activeSigs[:len(dst.activeSigs)-1]
					break
				}
			}
		}
		if m.carrierFlipped(dst) {
			carrier = append(carrier, NodeID(j))
		}
	}
	// Judge receptions while the state is settled, then notify: carrier
	// transitions first (the channel went idle as the frame ended), then the
	// frame outcomes.
	if m.probe != nil {
		m.probe.TxEnd(tx.frame, m.k.Now())
	}
	var thr rateThreshold
	if !sig {
		thr = m.threshold(tx.frame.Rate)
	}
	for _, r := range tx.recs {
		dst := &m.nodes[r.at]
		if sig {
			dst.sigRecs = removeReception(dst.sigRecs, r)
			r.ok = m.judgeSignature(r)
		} else if !r.failed {
			m.retireData(dst, r)
			r.ok = thr.decodes(r.powerMw / r.interfMaxMw)
		}
		if r.ok {
			m.Delivered++
		} else {
			m.Corrupted++
		}
		if m.probe != nil {
			m.probe.RxOutcome(tx.frame, r.at, r.ok, m.k.Now())
		}
	}
	m.notifyCarrier(carrier)
	m.pushCarrier(carrier)
	frame := tx.frame
	for _, r := range tx.recs {
		var det *SignatureDetection
		if sig {
			det = &r.det
		}
		m.nodes[r.at].listener.FrameReceived(frame, r.ok, det)
	}
	// Recycle only after every callback ran: listeners must never observe a
	// reused struct mid-notification.
	for _, r := range tx.recs {
		m.releaseRx(r)
	}
	m.releaseTx(tx)
}

// sinrGuard is the relative half-width of the band around a linear SINR
// threshold inside which decodes falls back to comparing in dB. It is far
// wider than the few-ulp errors of the cached power of ten and of the
// logarithm, so outside the band the linear compare decides exactly as the dB
// compare would.
const sinrGuard = 1e-9

// rateThreshold is one data rate's SINR threshold, in dB and as the linear
// band [lo, hi] around 10^(dB/10).
type rateThreshold struct {
	rate   Rate
	db     float64
	lo, hi float64
}

// threshold returns the cached threshold for rate, adding it on first use.
func (m *Medium) threshold(rate Rate) rateThreshold {
	for _, t := range m.thr {
		if t.rate == rate {
			return t
		}
	}
	db := SNRThresholdDB(rate)
	lin := math.Pow(10, db/10)
	t := rateThreshold{rate: rate, db: db, lo: lin * (1 - sinrGuard), hi: lin * (1 + sinrGuard)}
	m.thr = append(m.thr, t)
	return t
}

// decodes reports whether a data or ACK frame with signal-to-interference
// ratio S/I decodes: whether 10·log10(S/I) reaches the threshold. It compares
// linearly and takes the logarithm only inside the guard band.
func (t rateThreshold) decodes(ratio float64) bool {
	switch {
	case ratio > t.hi:
		return true
	case ratio < t.lo:
		return false
	}
	return 10*math.Log10(ratio) >= t.db
}

// judgeSignature decides a signature reception's outcome at frame end and
// fills its detection report.
func (m *Medium) judgeSignature(r *reception) bool {
	// One log instead of two: 10·log10(S/I) == S_dBm − I_dBm.
	sinr := 10 * math.Log10(r.powerMw/r.interfMaxMw)
	r.det = SignatureDetection{Combined: r.maxSigs, SINRdB: sinr}
	if r.failed || sinr < m.cfg.SigSINRdB {
		return false
	}
	p := m.cfg.Detector(r.maxSigs)
	return m.k.Rand().Float64() < p
}

func removeReception(recs []*reception, r *reception) []*reception {
	for i, x := range recs {
		if x == r {
			recs[i] = recs[len(recs)-1]
			return recs[:len(recs)-1]
		}
	}
	return recs
}

// carrierFlipped records a carrier-sense transition at the node and reports
// whether a listener notification is due.
func (m *Medium) carrierFlipped(ns *nodeState) bool {
	busy := ns.totalMw >= m.csMw
	if busy == ns.busy {
		return false
	}
	ns.busy = busy
	return ns.listener != nil
}

func (m *Medium) notifyCarrier(ids []NodeID) {
	for _, id := range ids {
		ns := &m.nodes[id]
		ns.listener.CarrierChanged(ns.busy)
	}
}
