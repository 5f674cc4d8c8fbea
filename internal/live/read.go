package live

import (
	"sort"
	"sync"

	"repro/internal/tvr"
	"repro/internal/types"
)

// This file serves one-shot reads from a session's retained output (the
// read contract in the package documentation).

// tableFold is the table rendering of the first n rows of a session's
// retained output. Only table reads take its mu, and never while holding
// s.mu: a delivery, which appends to the retained output, never waits on it.
type tableFold struct {
	mu  sync.Mutex
	rel *tvr.Relation
	n   int
}

// retained returns the retained output of an open session whose driver has
// only been fed in merge order, capped so later appends never show through,
// and with table set the session's fold, made on first use; otherwise
// replay names why not. It takes only s.mu, which a commit holds only to
// append, so a running feed cannot stall it.
func (s *Session) retained(table bool) (log tvr.Changelog, fold *tableFold, replay string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The bit is read after s.mu is taken: a feed stores it before its
	// delivery appends to outLog under s.mu, so output of an out-of-order
	// feed is never handed out.
	switch {
	case s.closed:
		return nil, nil, ReplayClosed
	case s.outOfOrder.Load():
		return nil, nil, ReplayOutOfOrder
	case s.overflowed:
		return nil, nil, ReplayOverflow
	}
	if table && s.fold == nil {
		s.fold = &tableFold{rel: tvr.NewRelation()}
	}
	return s.outLog[:len(s.outLog):len(s.outLog)], s.fold, ""
}

// cutAt returns the prefix of log with ptime <= at: the output a replay up
// to at collects (the retained ptimes never decrease).
func cutAt(log tvr.Changelog, at types.Time) tvr.Changelog {
	n := sort.Search(len(log), func(i int) bool { return log[i].Ptime > at })
	return log[:n:n]
}

// retainedOutput returns the prefix with ptime <= at of the retained output,
// or why the session cannot answer (see retained).
func (s *Session) retainedOutput(at types.Time) (tvr.Changelog, string) {
	log, _, replay := s.retained(false)
	return cutAt(log, at), replay
}

// retainedTable returns the table rendering at at of the retained output, in
// the relation's iteration order, in a slice the caller owns; folded counts
// the retained rows the read folded. A read at or past the fold extends it
// by the rows in between; an earlier read folds its own prefix and leaves
// the fold alone. replay is as for retained.
func (s *Session) retainedTable(at types.Time) (rows []types.Row, folded int, replay string, err error) {
	log, f, replay := s.retained(true)
	if replay != "" {
		return nil, 0, replay, nil
	}
	log = cutAt(log, at)
	f.mu.Lock()
	if len(log) < f.n {
		f.mu.Unlock()
		rel := tvr.NewRelation()
		if err := rel.ApplyOwned(log); err != nil {
			return nil, 0, "", err
		}
		return rel.Rows(), len(log), "", nil
	}
	defer f.mu.Unlock()
	if err := f.rel.ApplyOwned(log[f.n:]); err != nil {
		f.rel, f.n = tvr.NewRelation(), 0 // half applied: the next read refolds
		return nil, 0, "", err
	}
	folded, f.n = len(log)-f.n, len(log)
	return f.rel.Rows(), folded, "", nil
}
