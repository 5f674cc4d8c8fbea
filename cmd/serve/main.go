// Command serve runs the streaming SQL engine as a long-lived HTTP process:
// relations are registered and fed over JSON, one-shot queries return the
// table or stream rendering, and standing queries stream incremental EMIT
// deltas back over chunked ndjson responses — no recompilation or history
// rescan per request.
//
// A subscriber never slows ingest: each subscription's handler writes its
// deltas at its socket's pace from the session's retained output, and a
// commit only appends to that output. A subscriber whose connection stops
// reading holds the deltas it has not received in that output (bounded by
// retain= once the session is past it) and stalls nothing else.
// Graceful shutdown takes the final checkpoint before it closes any
// subscription, so every acknowledged commit is captured in the snapshot.
//
// With -data-dir the process is durable: core.Open owns the directory (its
// layout, commit order, recovery and degraded-mode rules are in package
// core's documentation). Every committed change (ingested batches,
// heartbeats, registrations) is in the write-ahead log before it is
// acknowledged, and the engine (catalog, recorded changelogs, and every
// shareable resident standing-query pipeline) is additionally snapshotted
// every -checkpoint-every, on POST /v1/checkpoint and on SIGINT/SIGTERM.
// A restart restores the last snapshot and re-publishes the log tail, so a
// kill -9 loses nothing that was acknowledged (under the default
// -wal-sync=always), and restored pipelines resume exactly where they
// stopped, with reconnecting subscribers attaching to them (snapshot
// hand-off included) without any history rescan.
//
// Each snapshot truncates the log it covers, so steady-state durability
// cost is the fsynced delta per interval plus an occasional snapshot, not a
// rewrite of the full history per interval. -wal-sync picks the fsync
// policy: "always" (fsync per committed batch, the default), "none"
// (OS-paced writeback), or a duration like "250ms" (background interval
// fsync; a crash can lose at most that window).
//
// Wire format. Ingest, subscription lines and one-shot query responses go
// through one schema-directed codec (wire.go) that keeps encoding/json's
// behaviour byte for byte, except where noted:
//
//   - An ingest body is {"events":[...]} decoded by the relation's column
//     kinds. Keys match as encoding/json matches struct fields (exactly,
//     else bytes.EqualFold after unescaping); unknown keys are skipped; a
//     repeated key's last value wins, and null leaves a field as it was.
//     "kind" is case-insensitive; a null row value is SQL NULL.
//   - Numbers: BIGINT, TIMESTAMP and INTERVAL values and ptime/wm take
//     json.Number.Int64's rule (no fraction, no exponent, overflow refused);
//     DOUBLE values take strconv.ParseFloat's. Strings are fully unescaped,
//     surrogate pairs included; invalid UTF-8 becomes U+FFFD.
//   - Anything but whitespace after a body's top-level value is refused with
//     400, on every POST route (encoding/json would stop reading there). A
//     refused ingest body's error names the event index and byte offset.
//   - Delta and response bytes are json.Encoder's for the equivalent maps:
//     sorted keys, <, >, &, U+2028 and U+2029 escaped, invalid UTF-8 as
//     \ufffd, encoding/json's float format, a trailing newline. JSON has no
//     ±Inf or NaN: a query whose result holds one is refused with a JSON
//     error, and a subscription whose delta holds one ends with an end line
//     naming it.
//
// Demo session (with -nexmark preloading the benchmark catalog):
//
//	go run ./cmd/serve -addr :8080 -nexmark 2000 -data-dir /var/lib/sql1 &
//	curl 'localhost:8080/v1/query?sql=SELECT+COUNT(*)+c+FROM+Bid'
//	curl -N 'localhost:8080/v1/subscribe?sql=SELECT+auction,+price+FROM+Bid+WHERE+price+>+900' &
//	curl -X POST localhost:8080/v1/relations/Bid/events -d \
//	  '{"events":[{"kind":"insert","ptime":999999999,"row":[1,7,950,999999999]}]}'
//	# the subscriber prints the matching delta immediately
//	curl -X POST localhost:8080/v1/checkpoint   # force a durable snapshot (and WAL truncation)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		preload    = flag.Int("nexmark", 0, "preload the NEXMark catalog with this many generated events (0 = empty engine; ignored when restoring from -data-dir, so a crash during the preload leaves a partial dataset that is not reloaded)")
		seed       = flag.Int64("seed", 42, "generator seed for -nexmark")
		dataDir    = flag.String("data-dir", "", "directory for durable state (snapshot + write-ahead log); restart restores the engine and its standing queries from the last snapshot plus the WAL tail")
		ckptEvery  = flag.Duration("checkpoint-every", 30*time.Second, "interval between periodic snapshots, each truncating the applied WAL segments (needs -data-dir; 0 disables the ticker, leaving on-shutdown and POST /v1/checkpoint)")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: \"always\" (per committed batch), \"none\", or an interval like \"250ms\" (needs -data-dir)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "bound on every request but /v1/subscribe. Register, ingest, heartbeat and checkpoint check their deadline once, when their commit is ordered: past it they answer 503 and commit nothing, and a commit that passed the check completes and is reported, late if need be. Reads (query, subscriptions, healthz, unsubscribe) past it get a 503 and their context is canceled. 0 disables")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling endpoints expose internals)")
		slowCommit = flag.Duration("slow-commit", obs.DefaultSlowCommit, "emit a structured span-breakdown log line for any commit slower than this (validate/wal/sequence/apply/render/deliver attribution); 0 disables the log, histograms stay on")
		logFormat  = flag.String("log-format", "text", "structured log format: \"text\" or \"json\"")
	)
	flag.Parse()
	if err := initLogger(*logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if err := run(*addr, *preload, *seed, *dataDir, *ckptEvery, *walSync, *reqTimeout, *pprofOn, *slowCommit); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// initLogger installs the process-wide structured logger (-log-format).
// Everything the serve process logs — checkpoint/shutdown lines and the
// engine's slow-commit span breakdowns — goes through it, so one stream is
// machine-parseable end to end under -log-format=json.
func initLogger(format string) error {
	var h slog.Handler
	switch format {
	case "", "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("log-format must be \"text\" or \"json\", got %q", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// run assembles the engine (core.Open restores snapshot + WAL tail from the
// data dir when present), serves HTTP until SIGINT/SIGTERM, then shuts down
// gracefully: final checkpoint first (while the resident pipelines are
// still alive), then drain the standing-query handlers, then close the
// listener.
func run(addr string, preload int, seed int64, dataDir string, ckptEvery time.Duration, walSync string, reqTimeout time.Duration, pprofOn bool, slowCommit time.Duration) error {
	opts := []core.Option{core.WithUnboundedGroupBy(), core.WithObs(obs.NewRegistry()), core.WithSlowCommit(slowCommit)}
	var engine *core.Engine
	restored := false
	if dataDir == "" {
		engine = core.NewEngine(opts...)
	} else {
		mode, interval, err := wal.ParseSyncPolicy(walSync)
		if err != nil {
			return err
		}
		var rec core.Recovery
		if engine, rec, err = core.Open(dataDir, wal.Options{Mode: mode, Interval: interval}, opts...); err != nil {
			return err
		}
		restored = rec.Restored
		slog.Info("opened data directory", "dir", dataDir, "restored", rec.Restored,
			"sessions", engine.LiveSessions(), "replayedRecords", rec.Replay.Frames,
			"walSeq", engine.WALSeq(), "tornTail", rec.Replay.Torn)
	}
	defer engine.Close()
	// The preload commits through the log like any ingest, so a restart
	// recovers it from the data directory, never by re-running the flags.
	// A checkpoint right after puts it in the snapshot, so restarts restore
	// it instead of replaying it.
	if preload > 0 && !restored {
		g := nexmark.Generate(nexmark.GeneratorConfig{
			Seed: seed, NumEvents: preload, MaxOutOfOrderness: 2 * types.Second,
		})
		if err := nexmark.Load(engine, g); err != nil {
			return err
		}
		if dataDir != "" {
			if _, _, err := engine.Checkpoint(); err != nil {
				return fmt.Errorf("checkpointing the preload: %w", err)
			}
		}
	}
	srv := NewServer(engine)
	srv.SetRequestTimeout(reqTimeout)
	if pprofOn {
		srv.EnablePprof()
	}

	// No WriteTimeout: it would sever streaming /v1/subscribe responses,
	// which are unbounded by design. Every other route is bounded by
	// -request-timeout instead: the commit routes by a deadline their
	// commit checks, the reads by a timeout wrapper. Slow or stuck clients
	// on the read side are bounded by the header/read/idle deadlines below.
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpoints, decoupled from request handling. A failed
	// checkpoint retries on a capped exponential backoff (1s, 2s, ... up to
	// the regular interval) instead of waiting a full interval: transient
	// faults heal quickly, and a persistent one reaches the degraded-mode
	// threshold in seconds rather than minutes. Checkpoint itself tracks
	// consecutive failures for /healthz and flips/clears degraded mode.
	if dataDir != "" && ckptEvery > 0 {
		go func() {
			backoff := time.Duration(0)
			timer := time.NewTimer(ckptEvery)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				if n, _, err := engine.Checkpoint(); err != nil {
					backoff = min(max(2*backoff, time.Second), ckptEvery)
					slog.Error("periodic checkpoint failed", "retryIn", backoff, "err", err)
					timer.Reset(backoff)
				} else {
					backoff = 0
					slog.Info("checkpoint written", "bytes", n, "sessions", engine.LiveSessions())
					timer.Reset(ckptEvery)
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	slog.Info("listening", "addr", addr, "nexmarkPreload", preload, "dataDir", dataDir)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")

	// 1. Final checkpoint while every resident pipeline is still alive —
	//    canceling a session's last cursor would tear its pipeline down.
	//    The snapshot is taken under the ordering lock, so every
	//    acknowledged commit is in it. No subscriber can hold it up: a
	//    commit never waits on one.
	if dataDir != "" {
		if n, _, err := engine.Checkpoint(); err != nil {
			slog.Error("final checkpoint failed", "err", err)
		} else {
			slog.Info("final checkpoint written", "bytes", n, "sessions", engine.LiveSessions())
		}
	}
	// 2. End the standing-query streams so their chunked handlers return,
	//    then 3. drain the listener. In-flight one-shot requests get the
	//    grace period; subscribers reconnect after restart and attach to
	//    the restored pipelines.
	srv.CancelSubscriptions()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	slog.Info("stopped")
	return nil
}
