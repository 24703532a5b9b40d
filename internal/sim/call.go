package sim

// Calls schedules fn(arg) on a kernel without allocating a closure per call.
// Each pending call is a pooled record that holds its argument and a fire
// callback bound once, when the record is first made, so a steady stream of
// calls reuses a handful of records.
//
// It serves fire-and-forget timers only: a record returns to the pool when
// its event fires, so cancelling the event would strand the record (it
// becomes garbage instead of being reused). A timer that may be cancelled
// keeps its own record type and returns it explicitly at each cancel site.
type Calls[A any] struct {
	k    *Kernel
	fn   func(A)
	free []*call[A]
}

type call[A any] struct {
	pool *Calls[A]
	arg  A
	fire func()
}

// NewCalls returns a call pool that runs fn on k.
func NewCalls[A any](k *Kernel, fn func(A)) *Calls[A] {
	return &Calls[A]{k: k, fn: fn}
}

// After schedules fn(arg) to run d after the current time, exactly like
// k.After(d, func() { fn(arg) }): same instant, same sequence number, same
// inherited source.
func (c *Calls[A]) After(d Time, arg A) {
	var r *call[A]
	if n := len(c.free) - 1; n >= 0 {
		r = c.free[n]
		c.free[n] = nil
		c.free = c.free[:n]
	} else {
		r = &call[A]{pool: c}
		r.fire = r.run
	}
	r.arg = arg
	c.k.After(d, r.fire)
}

// run returns the record to the pool before calling fn, so fn may schedule
// further calls that reuse it.
func (r *call[A]) run() {
	arg := r.arg
	var zero A
	r.arg = zero // drop references the argument holds
	r.pool.free = append(r.pool.free, r)
	r.pool.fn(arg)
}
