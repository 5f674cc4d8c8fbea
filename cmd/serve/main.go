// Command serve runs the streaming SQL engine as a long-lived HTTP process:
// relations are registered and fed over JSON, one-shot queries return the
// table or stream rendering, and standing queries stream incremental EMIT
// deltas back over chunked ndjson responses — no recompilation or history
// rescan per request.
//
// With -shards N the standing-query fan-out runs on the sharded ingest
// subsystem: each resident pipeline is pinned to one of N shard workers and
// commits are applied asynchronously in global commit order, so disjoint
// standing queries scale across cores and a stalled Block-policy subscriber
// parks only its own shard. Delta sequences are byte-identical to the serial
// fan-out; /healthz and /v1/subscriptions report per-shard depth and lag.
// Graceful shutdown drains the shard queues before the final checkpoint, so
// every acknowledged commit is captured in the snapshot.
//
// With -data-dir the process is durable, snapshot + write-ahead-log style:
// every committed change (ingested batches, heartbeats, registrations) is
// appended to a segmented CRC-framed WAL under <data-dir>/wal before it is
// acknowledged, and the engine (catalog, recorded changelogs, and every
// shareable resident standing-query pipeline) is additionally snapshotted
// periodically and on SIGINT/SIGTERM with a crash-safe atomic file swap.
// Recovery on restart stitches the two: load the last snapshot, then
// re-publish the WAL tail through the normal commit path — so a kill -9
// loses nothing that was acknowledged (under the default -wal-sync=always),
// not just nothing since the last snapshot, and restored pipelines resume
// exactly where they stopped, with reconnecting subscribers attaching to
// them (snapshot hand-off included) without any history rescan.
//
// Each completed snapshot truncates the WAL segments it covers — snapshots
// are the log's compaction — so steady-state durability cost is the fsynced
// delta per interval plus an occasional snapshot, not a rewrite of the full
// history per interval. -wal-sync picks the fsync policy: "always" (fsync
// per committed batch, the default), "none" (OS-paced writeback), or a
// duration like "250ms" (background interval fsync; a crash can lose at
// most that window).
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
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wal"
)

// checkpointFileName is the durable engine snapshot inside -data-dir; the
// write-ahead log lives in the walDirName subdirectory next to it.
const (
	checkpointFileName = "checkpoint.ckpt"
	walDirName         = "wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		preload    = flag.Int("nexmark", 0, "preload the NEXMark catalog with this many generated events (0 = empty engine; ignored when restoring from -data-dir)")
		seed       = flag.Int64("seed", 42, "generator seed for -nexmark")
		dataDir    = flag.String("data-dir", "", "directory for durable state (snapshot + write-ahead log); restart restores the engine and its standing queries from the last snapshot plus the WAL tail")
		ckptEvery  = flag.Duration("checkpoint-every", 30*time.Second, "interval between periodic snapshots, each truncating the applied WAL segments (needs -data-dir; 0 disables the ticker, leaving on-shutdown and POST /v1/checkpoint)")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: \"always\" (per committed batch), \"none\", or an interval like \"250ms\" (needs -data-dir)")
		shards     = flag.Int("shards", 0, "shard workers for standing-query fan-out (0 = serial: deliveries run on the ingesting goroutine); with N > 0 each resident pipeline is pinned to one of N workers and commits are applied asynchronously in commit order, so disjoint standing queries scale across cores and a stalled Block-policy subscriber parks only its own shard")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "deadline for one-shot requests (register, ingest, query, ...); past it the client gets a 503 and the handler context is canceled. Streaming /v1/subscribe is exempt. 0 disables")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling endpoints expose internals)")
		slowCommit = flag.Duration("slow-commit", obs.DefaultSlowCommit, "emit a structured span-breakdown log line for any commit slower than this (validate/wal/sequence/enqueue/apply/render/deliver attribution); 0 disables the log, histograms stay on")
		logFormat  = flag.String("log-format", "text", "structured log format: \"text\" or \"json\"")
	)
	flag.Parse()
	if err := initLogger(*logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if err := run(*addr, *preload, *seed, *dataDir, *ckptEvery, *walSync, *shards, *reqTimeout, *pprofOn, *slowCommit); err != nil {
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

// run assembles the engine (restoring snapshot + WAL tail from the data dir
// when present), serves HTTP until SIGINT/SIGTERM, then shuts down
// gracefully: final checkpoint first (while the resident pipelines are
// still alive), then drain the standing-query handlers, then close the
// listener.
func run(addr string, preload int, seed int64, dataDir string, ckptEvery time.Duration, walSync string, shards int, reqTimeout time.Duration, pprofOn bool, slowCommit time.Duration) error {
	engine, walw, restored, err := openEngine(preload, seed, dataDir, walSync, shards,
		core.WithObs(obs.NewRegistry()), core.WithSlowCommit(slowCommit))
	if err != nil {
		return err
	}
	defer engine.Close()
	srv := NewServer(engine)
	srv.SetRequestTimeout(reqTimeout)
	if pprofOn {
		srv.EnablePprof()
	}
	if dataDir != "" {
		srv.EnableCheckpoint(filepath.Join(dataDir, checkpointFileName))
	}
	if walw != nil {
		defer walw.Close()
		srv.EnableWALTruncation(walw.TruncateThrough)
	}
	// A first boot writes its snapshot immediately: from here on, recovery
	// is always snapshot + WAL tail, never a re-run of the preload flags
	// (whose values a later restart is not obliged to repeat).
	if dataDir != "" && !restored {
		n, err := srv.CheckpointNow()
		if err != nil {
			return fmt.Errorf("initial checkpoint: %w", err)
		}
		slog.Info("initial checkpoint written", "bytes", n)
	}

	// No WriteTimeout: it would sever streaming /v1/subscribe responses,
	// which are unbounded by design. One-shot handlers are bounded by
	// -request-timeout instead; slow or stuck clients on the read side are
	// bounded by the header/read/idle deadlines below.
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
	// threshold in seconds rather than minutes. CheckpointNow itself tracks
	// consecutive failures for /healthz and flips/clears degraded mode.
	if dataDir != "" && ckptEvery > 0 {
		go func() {
			backoff := time.Duration(0)
			delay := ckptEvery
			timer := time.NewTimer(delay)
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				if n, err := srv.CheckpointNow(); err != nil {
					if backoff == 0 {
						backoff = time.Second
					} else {
						backoff *= 2
					}
					if backoff > ckptEvery {
						backoff = ckptEvery
					}
					delay = backoff
					slog.Error("periodic checkpoint failed", "retryIn", delay, "err", err)
				} else {
					backoff = 0
					delay = ckptEvery
					slog.Info("checkpoint written", "bytes", n, "sessions", engine.LiveSessions())
				}
				timer.Reset(delay)
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
	//    The snapshot runs under the live ordering lock, which a delivery
	//    parked on a stalled Block-policy subscriber can hold indefinitely;
	//    if the checkpoint cannot start promptly, end the subscriptions to
	//    release the park and let it complete against the surviving state
	//    (the catalog always; torn-down sessions rebuild by history replay
	//    after restart). Hanging forever would be worse: the operator's
	//    eventual SIGKILL would discard everything since the last periodic
	//    checkpoint.
	if dataDir != "" {
		ckptDone := make(chan struct{})
		go func() {
			defer close(ckptDone)
			// Drain the shard queues first so every acknowledged commit is
			// applied to its resident pipelines before they are snapshotted
			// (a no-op under the serial fan-out). Runs inside the timed
			// goroutine because a stalled Block-policy subscriber parks its
			// shard; CancelSubscriptions below releases the park.
			engine.Quiesce()
			if n, err := srv.CheckpointNow(); err != nil {
				slog.Error("final checkpoint failed", "err", err)
			} else {
				slog.Info("final checkpoint written", "bytes", n, "sessions", engine.LiveSessions())
			}
		}()
		select {
		case <-ckptDone:
		case <-time.After(5 * time.Second):
			slog.Warn("final checkpoint blocked (delivery parked on a stalled subscriber?); ending subscriptions to release it")
			srv.CancelSubscriptions()
			<-ckptDone
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

// openEngine builds the serving engine. Without a data dir it is simply
// fresh (optionally preloaded with the NEXMark catalog). With one, it is
// the full recovery stitch: sweep crash litter, load the last snapshot if
// present, re-publish the WAL tail through the normal commit path, then
// open the log for appending and attach it so every further commit is
// logged. The returned restored flag reports whether a snapshot existed
// (run writes an initial one otherwise).
func openEngine(preload int, seed int64, dataDir, walSync string, shards int, opts ...core.Option) (*core.Engine, *wal.Writer, bool, error) {
	if dataDir == "" {
		engine, err := buildEngine(preload, seed, shards, opts...)
		return engine, nil, false, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, false, err
	}
	if err := sweepStaleCheckpointTemps(dataDir); err != nil {
		return nil, nil, false, err
	}

	var engine *core.Engine
	restored := false
	path := filepath.Join(dataDir, checkpointFileName)
	switch _, statErr := os.Stat(path); {
	case statErr == nil:
		engine = core.NewEngine(append([]core.Option{core.WithUnboundedGroupBy(), core.WithShards(shards)}, opts...)...)
		if err := engine.RestoreFile(path); err != nil {
			return nil, nil, false, fmt.Errorf("restoring %s: %w", path, err)
		}
		restored = true
		slog.Info("restored engine from checkpoint (standing queries resume without history replay)",
			"path", path, "sessions", engine.LiveSessions())
	case os.IsNotExist(statErr):
		var err error
		if engine, err = buildEngine(preload, seed, shards, opts...); err != nil {
			return nil, nil, false, err
		}
	default:
		// Only a definitively-absent checkpoint may start fresh: a
		// transient stat failure must not boot an empty engine whose
		// next periodic checkpoint would overwrite the durable one.
		return nil, nil, false, fmt.Errorf("checking %s: %w", path, statErr)
	}

	// Re-publish the WAL tail through the normal commit path: records the
	// snapshot already covers are skipped by sequence number, the rest
	// replay exactly as live changes would. A torn tail is the expected
	// crash signature; anything else fails the boot loudly.
	walDir := filepath.Join(dataDir, walDirName)
	info, err := wal.Replay(walDir, engine.ReplayWALRecord)
	if err != nil {
		return nil, nil, false, fmt.Errorf("replaying %s: %w", walDir, err)
	}
	if info.Frames > 0 {
		slog.Info("replayed WAL tail", "throughSeq", info.LastSeq, "records", info.Frames, "engineSeq", engine.WALSeq())
	}
	if info.Torn != "" {
		slog.Warn("WAL tail was torn by a crash; recovered to the last valid commit", "torn", info.Torn)
	}

	mode, interval, err := wal.ParseSyncPolicy(walSync)
	if err != nil {
		return nil, nil, false, err
	}
	walw, err := wal.Open(walDir, engine.WALSeq()+1, wal.Options{Mode: mode, Interval: interval, Obs: engine.Obs()})
	if err != nil {
		return nil, nil, false, fmt.Errorf("opening %s: %w", walDir, err)
	}
	if err := engine.AttachWAL(walw); err != nil {
		walw.Close()
		return nil, nil, false, err
	}
	return engine, walw, restored, nil
}

// sweepStaleCheckpointTemps removes checkpoint temp files a previous run's
// crash mid-WriteFileAtomicFS left behind. They are never the live snapshot
// (the atomic swap either renamed the temp away or abandoned it), so
// without this they accumulate in -data-dir forever.
func sweepStaleCheckpointTemps(dataDir string) error {
	stale, err := filepath.Glob(filepath.Join(dataDir, checkpointFileName+".tmp*"))
	if err != nil {
		return err
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("sweeping stale checkpoint temp %s: %w", p, err)
		}
		slog.Info("removed stale checkpoint temp", "path", p)
	}
	return nil
}

// buildEngine creates the engine, optionally preloaded with the NEXMark
// catalog and a deterministic dataset so demos have data to query.
func buildEngine(events int, seed int64, shards int, opts ...core.Option) (*core.Engine, error) {
	all := append([]core.Option{core.WithUnboundedGroupBy(), core.WithShards(shards)}, opts...)
	if events <= 0 {
		return core.NewEngine(all...), nil
	}
	g := nexmark.Generate(nexmark.GeneratorConfig{
		Seed: seed, NumEvents: events, MaxOutOfOrderness: 2 * types.Second,
	})
	return nexmark.NewEngine(g, all...)
}
