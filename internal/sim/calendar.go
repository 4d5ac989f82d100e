package sim

// slot is one calendar entry. The (at, seq) key is stored inline so that
// sifting compares keys without dereferencing the pooled event cells.
type slot struct {
	at  Time
	seq uint64
	ev  *event
}

// before is the calendar order: earlier time first, and at the same instant
// the event scheduled first. seq is unique per engine, so the order is
// total and every run is deterministic.
func (s slot) before(o slot) bool {
	return s.at < o.at || (s.at == o.at && s.seq < o.seq)
}

// calendar is the engine's pending-event queue: a 4-ary min-heap over
// inline-key slots. The wider fan-out halves the tree depth of a binary heap,
// so a pop sifts through fewer levels, and the four children it compares sit
// next to each other in memory.
type calendar []slot

const arity = 4

// push inserts s, sifting it up from the bottom of the heap.
func (c *calendar) push(s slot) {
	h := append(*c, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = s
	*c = h
}

// pop removes the least slot. The heap must be non-empty.
func (c *calendar) pop() slot {
	h := *c
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	*c = h
	if n == 0 {
		return top
	}
	// Sift the former last slot down from the root.
	i := 0
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		m := first
		end := min(first+arity, n)
		for j := first + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
