package nn

import (
	"sync"
	"sync/atomic"
)

// DigestMemo holds one memoised 128-bit content digest of part of a
// lowering. The engine keys its shared caches by content — each filter
// group's schedule by its weights, each layer's cost planes by its input
// activations — and a lowering's weights and activations never change once
// it exists, so each digest is computed on first use and read back ever
// after instead of re-hashed on every (config, run).
//
// The memo is lock-free and 16 bytes. Concurrent first users may each
// compute the digest; they store identical values, and a reader that sees
// the first word set also sees the second. A digest whose first word is
// zero is never memoised, only recomputed: correct, merely unmemoised.
type DigestMemo struct {
	h1, h2 atomic.Uint64
}

// Load returns the memoised digest, or ok=false when none is stored yet.
func (m *DigestMemo) Load() (h1, h2 uint64, ok bool) {
	h1 = m.h1.Load()
	if h1 == 0 {
		return 0, 0, false
	}
	return h1, m.h2.Load(), true
}

// Store memoises a digest. The second word is published first, so Load
// never pairs a new first word with a missing second one.
func (m *DigestMemo) Store(h1, h2 uint64) {
	m.h2.Store(h2)
	m.h1.Store(h1)
}

// groupDigests is the memo table of one filter-group size: slot g covers
// filters [g*rows, min((g+1)*rows, Filters)). Tables form an immutable
// list published through an atomic pointer; a sweep uses one or two group
// sizes, so the walk is a pointer or two.
type groupDigests struct {
	rows  int
	slots []DigestMemo
	next  *groupDigests
}

// digests is a lowering's content-identity memo: one table per filter-group
// size, plus the input activations' digest. It lives on the Lowered, so it
// is freed with it.
type digests struct {
	mu     sync.Mutex // serialises adding a table
	groups atomic.Pointer[groupDigests]
	input  DigestMemo
}

// GroupDigest returns the digest memo of filter group g at group size rows:
// filters [g*rows, min((g+1)*rows, Filters)). Callers that hash a group's
// content store the hash here once and read it on every later lookup.
func (lw *Lowered) GroupDigest(rows, g int) *DigestMemo {
	d := &lw.ids
	for t := d.groups.Load(); t != nil; t = t.next {
		if t.rows == rows {
			return &t.slots[g]
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	head := d.groups.Load()
	for t := head; t != nil; t = t.next {
		if t.rows == rows {
			return &t.slots[g]
		}
	}
	t := &groupDigests{rows: rows, slots: make([]DigestMemo, (lw.Filters+rows-1)/rows), next: head}
	d.groups.Store(t)
	return &t.slots[g]
}

// InputDigest returns the digest memo of the lowering's input activations
// and the geometry that maps them onto dense-schedule slots.
func (lw *Lowered) InputDigest() *DigestMemo { return &lw.ids.input }
