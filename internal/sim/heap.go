package sim

// eventHeap is a monomorphic index-tracked binary min-heap over pooled
// events, ordered by (at, seq). It replaces container/heap: no
// heap.Interface, so push/pop/remove are direct calls on concrete types with
// no `any` boxing, and the stored index supports O(log n) eager removal on
// Cancel. Because (at, seq) is a total order (seq is unique), the pop
// sequence is the exact sorted order regardless of internal layout — the
// property the byte-identical trace contract rests on.
type eventHeap []*event

// peek returns the minimum event without removing it, or nil when empty.
func (h eventHeap) peek() *event {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}

// push inserts e and records its heap index.
func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	*h = q
	i := len(q) - 1
	e.index = int32(i)
	q.up(i)
}

// popMin removes and returns the minimum event.
func (h *eventHeap) popMin() *event {
	q := *h
	n := len(q) - 1
	q.swap(0, n)
	e := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 0 {
		q.down(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap index i (the eager-Cancel path).
func (h *eventHeap) remove(i int) {
	q := *h
	n := len(q) - 1
	if i != n {
		q.swap(i, n)
	}
	e := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if i != n && i < n {
		if !q.down(i) {
			q.up(i)
		}
	}
	e.index = -1
}

// fix restores heap order after the event at index i changed its key.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the element at i toward the leaves and reports whether it moved.
func (h eventHeap) down(i int) bool {
	n := len(h)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n || l < 0 { // l < 0 after int overflow
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}
