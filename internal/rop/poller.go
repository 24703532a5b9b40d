// The poll-registry adapter: ROP registers itself as the default polling
// scheme (internal/poll), so the DOMINO engine reaches Assign/Decode purely
// through the Poller interface. The wrapper adds nothing on top of the
// package's own functions — one round, the calibrated decode rule, the same
// per-client trace records — which is what keeps default-poller runs
// byte-identical to the pre-registry engine.

package rop

import (
	"repro/internal/phy"
	"repro/internal/poll"
)

// Poller adapts Rapid OFDM Polling to the poll registry. One instance
// serves one AP.
type Poller struct {
	assign Assignment
}

// Name implements poll.Poller.
func (p *Poller) Name() string { return "ROP" }

// Assign implements poll.Poller. Callers must respect the descriptor's
// MaxClients ceiling (Assign panics beyond it, as the paper's single
// control symbol offers only 24 subchannels).
func (p *Poller) Assign(clients []phy.NodeID, rssAtAP func(phy.NodeID) float64) {
	p.assign = Assign(clients, rssAtAP)
}

// Clients implements poll.Poller.
func (p *Poller) Clients() []phy.NodeID { return p.assign.Clients }

// Rounds implements poll.Poller: ROP is the one-symbol, one-round poll.
func (p *Poller) Rounds() int { return 1 }

// Poll implements poll.Poller via DecodeObserved, emitting the exact record
// sequence the pre-registry engine emitted.
func (p *Poller) Poll(ctx poll.Context) poll.Result {
	res := DecodeObserved(p.assign, ctx.Queue, ctx.RSSAtAP, ctx.NoiseDBm,
		ctx.Tracer, ctx.Now, ctx.Span)
	return poll.Result{Values: res.Values, Failed: res.Failed, Rounds: 1}
}

// State implements poll.Poller: ROP is stateless between cycles.
func (p *Poller) State() map[string]int64 { return nil }

func init() {
	poll.MustRegister(poll.Descriptor{
		Name:       "ROP",
		Summary:    "the paper's Rapid OFDM Polling: one 24-subchannel control symbol per cycle (§3.1)",
		MaxClients: MaxClients,
		Build: func(any) (poll.Poller, error) {
			return &Poller{}, nil
		},
	})
}
