package core

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/tvr"
)

// DegradeAfter exposes the degraded-mode threshold to the external tests.
const DegradeAfter = degradeAfter

// Log returns a copy of the relation's recorded changelog.
func (e *Engine) Log(name string) (tvr.Changelog, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rel, ok := e.rels[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: relation %q not found", name)
	}
	return append(tvr.Changelog(nil), rel.log.Since(0).Flat()...), nil
}

// ReplayWALRecord exposes Open's replay callback to the external tests.
func (e *Engine) ReplayWALRecord(seq uint64, dec *checkpoint.Decoder) error {
	return e.replayWALRecord(seq, dec)
}
