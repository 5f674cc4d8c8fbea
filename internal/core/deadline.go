package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrDeadlinePassed is the sentinel every commit refused by its deadline
// wraps (see Before). Like ErrDegraded it means nothing committed: no log
// record, no sequence number, no change to the catalog or to any standing
// query. Callers route it with errors.Is (serve maps it to 503).
var ErrDeadlinePassed = errors.New("core: deadline passed before the commit")

// Commits is the engine's commit surface bound to a deadline; Before makes
// one. Each method is the Engine method of the same name.
type Commits struct {
	e        *Engine
	deadline time.Time
}

// Before binds the engine's commits to deadline, the bound on a request that
// changes the engine (cmd/serve's -request-timeout). A commit compares the
// deadline with the clock once, as its first step under the lock that orders
// it (doc.go, "Commit order"), and refuses with ErrDeadlinePassed once it has
// passed. A commit that passes the check completes however long the rest
// takes, so its caller always learns the truth, late if need be. The zero
// deadline never passes: the Engine's own commit methods use it.
func (e *Engine) Before(deadline time.Time) Commits { return Commits{e: e, deadline: deadline} }

// checkDeadline refuses a commit whose deadline has passed.
func (c Commits) checkDeadline() error {
	if c.deadline.IsZero() {
		return nil
	}
	if late := time.Since(c.deadline); late >= 0 {
		return fmt.Errorf("%w (%s late)", ErrDeadlinePassed, late)
	}
	return nil
}
