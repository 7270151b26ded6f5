package comm

import "fmt"

// Collective runs simple synchronizing collectives over the out-of-band
// lane of one endpoint. It is the distributed solver's substitute for
// MPI_Allgather/MPI_Barrier: between runtime rounds, every rank exchanges
// its partial results (flux and lagged-edge contributions) with every
// other rank.
//
// The helper is stateful: because ranks advance through the same global
// sequence of collectives but at different speeds, a fast peer's payload
// for collective k+1 can arrive while this rank is still gathering
// collective k. Pairwise FIFO ordering guarantees per-source payloads
// arrive in collective order, so early arrivals are stashed per source
// and consumed by the next call. One Collective must own an endpoint's
// OOB lane for its lifetime; all ranks must issue the same sequence of
// collective calls.
type Collective struct {
	ep    Endpoint
	n     int
	stash []Ring[[]byte] // per-source FIFO of early-arrived payloads
}

// NewCollective wraps an endpoint for collectives over an n-rank world.
func NewCollective(ep Endpoint, n int) *Collective {
	return &Collective{ep: ep, n: n, stash: make([]Ring[[]byte], n)}
}

// AllExchange sends payload to every other rank and returns one payload
// per rank (indexed by rank; the local slot aliases the argument). It
// doubles as a barrier: no rank returns before every rank has entered
// the exchange.
func (c *Collective) AllExchange(payload []byte) ([][]byte, error) {
	me := c.ep.Rank()
	out := make([][]byte, c.n)
	got := make([]bool, c.n)
	out[me] = payload
	got[me] = true
	missing := 0
	for r := 0; r < c.n; r++ {
		if r == me {
			continue
		}
		if err := c.ep.SendOOB(r, payload); err != nil {
			return nil, fmt.Errorf("comm: collective send to rank %d: %w", r, err)
		}
		// Consume stashed early arrivals first: FIFO per source keeps
		// payloads aligned with the collective sequence.
		if early, ok := c.stash[r].Pop(); ok {
			out[r], got[r] = early, true
			continue
		}
		missing++
	}
	for missing > 0 {
		m, err := c.ep.RecvOOB()
		if err != nil {
			return nil, fmt.Errorf("comm: collective recv: %w", err)
		}
		if m.From < 0 || m.From >= c.n {
			return nil, fmt.Errorf("comm: collective message from invalid rank %d", m.From)
		}
		if got[m.From] {
			// A faster peer is already in a later collective; keep its
			// payload for our next call.
			c.stash[m.From].Push(m.Data)
			continue
		}
		out[m.From], got[m.From] = m.Data, true
		missing--
	}
	return out, nil
}

// Barrier blocks until every rank has entered the barrier.
func (c *Collective) Barrier() error {
	_, err := c.AllExchange(nil)
	return err
}
