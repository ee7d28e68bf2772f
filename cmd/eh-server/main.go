// Command eh-server serves EmptyHeaded over HTTP/JSON: concurrent datalog
// queries against a shared engine, with plan and result caching, a
// bounded worker pool (see internal/server), and optional persistence: a
// data directory it restores from on boot (mmap zero-copy, so a large
// database is serving in milliseconds) and snapshots to on SIGTERM.
//
// With -wal-dir the server keeps a write-ahead log of streaming updates
// (POST /update): every acknowledged batch is journaled under the
// configured -fsync policy before it applies, the log replays on boot
// on top of the -data-dir snapshot, and a successful snapshot truncates
// the segments it absorbed.
//
// Every request is traced through its lifecycle phases; /metrics serves
// latency histograms, /debug/queries lists recent traces, and
// -slow-query-ms adds slow_query events to the structured event log
// (-event-log; see docs/OBSERVABILITY.md). -pprof-addr serves net/http/pprof on a
// separate listener, off by default.
//
// Usage:
//
//	eh-server -addr :8080 -graph edges.txt                # serve an edge list as Edge
//	eh-server -addr :8080 -synthetic 10000 -degree 16     # serve a synthetic power-law graph
//	eh-server -addr :8080 -data-dir /data/eh              # restore on boot, snapshot on SIGTERM
//	eh-server -addr :8080 -data-dir /data/eh -wal-dir /data/eh-wal -fsync always
//	eh-server -addr :8080                                 # start empty; POST /load
//
// Quickstart once running:
//
//	curl -s localhost:8080/query -d '{"query":"TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."}'
//	curl -s localhost:8080/update -d '{"name":"Edge","inserts":[[1,2],[2,3]]}'
//	curl -s localhost:8080/snapshot -d '{}'               # persist now (with -data-dir)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/server"
	"emptyheaded/internal/storage"
	"emptyheaded/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	graphPath := flag.String("graph", "", "edge list file served as relation Edge")
	name := flag.String("name", "Edge", "relation name for the startup graph")
	directed := flag.Bool("directed", false, "load the startup graph as directed")
	synthetic := flag.Int("synthetic", 0, "serve a synthetic power-law graph with this many vertices (when no -graph)")
	degree := flag.Int("degree", 16, "average degree of the synthetic graph")
	seed := flag.Int64("seed", 1, "synthetic graph seed")
	dataDir := flag.String("data-dir", "", "snapshot directory: auto-restore on boot, snapshot on SIGTERM, default for /snapshot and /restore")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: journal /update batches, replay on boot, truncate on snapshot")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always (durable per batch), interval, or off")
	fsyncInterval := flag.Duration("fsync-interval", 50*time.Millisecond, "flush cadence for -fsync interval")
	compactRatio := flag.Float64("compact-ratio", core.DefaultCompactRatio, "overlay/base row ratio that triggers background compaction (0 disables)")
	compactMin := flag.Int("compact-min", core.DefaultCompactMin, "minimum overlay rows before compaction is considered")
	workers := flag.Int("workers", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max time a request waits for a worker slot")
	resultCache := flag.Int("result-cache", 128, "result cache entries")
	queryDeadline := flag.Duration("query-deadline", 30*time.Second, "per-request wall-clock deadline: queries past it get 504 (0 = none)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive durability failures before entering read-only degraded mode (0 = default 3, <0 disables)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate listener (e.g. 127.0.0.1:6060; empty = disabled)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log requests slower than this many milliseconds as slow_query events (0 = disabled)")
	eventLog := flag.String("event-log", "", "unified structured event log file, appended, rotated at 64 MiB keeping 3 files (default stderr)")
	auditFraction := flag.Float64("audit-fraction", 0, "fraction of cached serves re-executed and compared by the background result-cache auditor (0 disables; POST /debug/audit sweeps on demand)")
	flag.Parse()

	// A serving engine's live heap is small (tries are compact: ~10 MB for
	// a 40k-edge graph) beside what its queries allocate and drop —
	// materialised bags, merged views, some 230 MB/s under mixed traffic —
	// so at the runtime's default pacing the collector starts some 30
	// cycles a second and the heaviest queries pay in assists and lost
	// processor time (serve_mixed op_p95_ms 17 -> 21 ms). Half as much
	// headroom again takes a third of the cycles away for ~10 MB. A GOGC
	// in the environment still decides.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(150)
	}

	eng := core.New()

	// The unified event log: -event-log gets a file rotated at 64 MiB,
	// keeping 3 rotated files; without it, events go to stderr, unrotated.
	events := obs.NewEventLog(os.Stderr)
	if *eventLog != "" {
		el, err := obs.OpenEventLog(*eventLog, 64<<20, 3)
		if err != nil {
			fatal(err)
		}
		defer el.Close()
		events = el
	}

	// The server and its listener come up before the data loads: /healthz
	// answers liveness immediately and /readyz reports boot progress
	// (loading → restoring → replaying-wal → ready) while a large restore
	// or WAL replay runs, so orchestrators can distinguish a slow boot
	// from a dead process.
	s := server.New(eng, server.Config{
		Workers:            *workers,
		QueueWait:          *queueWait,
		ResultCacheSize:    *resultCache,
		DataDir:            *dataDir,
		SlowQueryThreshold: time.Duration(*slowQueryMS) * time.Millisecond,
		QueryDeadline:      *queryDeadline,
		BreakerThreshold:   *breakerThreshold,
		Events:             events,
		AuditFraction:      *auditFraction,
	})
	s.SetBootPhase("loading")
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	lnErr := make(chan error, 1)
	go func() { lnErr <- httpSrv.Serve(ln) }()
	log.Printf("eh-server: listening on %s", *addr)

	// Boot order: a restorable snapshot in -data-dir wins (that is the
	// deploy-survival path); otherwise fall back to the seed flags.
	switch {
	case *dataDir != "" && storage.Exists(*dataDir):
		s.SetBootPhase("restoring")
		t0 := time.Now()
		cat, err := eng.Restore(*dataDir)
		if err != nil {
			fatal(fmt.Errorf("restore %s: %w", *dataDir, err))
		}
		log.Printf("eh-server: restored %s from %s in %v", cat, *dataDir, time.Since(t0))
	case *graphPath != "":
		f, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		if err := eng.LoadEdgeList(*name, f, !*directed); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
	case *synthetic > 0:
		g := gen.PowerLaw(*synthetic, *synthetic**degree, 2.1, *seed)
		eng.LoadGraph(*name, g)
	}
	// Loads are not journaled — the WAL covers /update batches only. A
	// database seeded from flags would therefore not survive a crash, so
	// with both -data-dir and -wal-dir configured the seed is snapshotted
	// immediately: base in the snapshot, updates in the log.
	if *walDir != "" && *dataDir != "" && !storage.Exists(*dataDir) && len(eng.Relations()) > 0 {
		t0 := time.Now()
		cat, err := eng.Snapshot(*dataDir)
		if err != nil {
			fatal(fmt.Errorf("initial snapshot %s: %w", *dataDir, err))
		}
		log.Printf("eh-server: seed snapshot %s to %s in %v", cat, *dataDir, time.Since(t0))
	}
	// WAL opens after the snapshot restore, so its records replay on top
	// of the restored state (records the snapshot already absorbed were
	// truncated away; survivors re-apply idempotently).
	if *walDir != "" {
		s.SetBootPhase("replaying-wal")
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		eng.SetAutoCompact(*compactRatio, *compactMin)
		st, err := eng.OpenWAL(core.WALConfig{
			Dir:          *walDir,
			Sync:         policy,
			SyncInterval: *fsyncInterval,
			SnapshotDir:  *dataDir,
		})
		if err != nil {
			fatal(fmt.Errorf("wal %s: %w", *walDir, err))
		}
		log.Printf("eh-server: wal %s (fsync=%s): replayed %d records (%d rows, %d relations) in %dus%s",
			*walDir, policy, st.Records, st.Rows, st.Relations, st.DurationUS,
			map[bool]string{true: ", torn tail truncated", false: ""}[st.Truncated])
	}
	for _, ri := range eng.Relations() {
		log.Printf("eh-server: relation %s arity=%d cardinality=%d", ri.Name, ri.Arity, ri.Cardinality)
	}
	s.SetBootPhase("ready")

	// Profiling stays off the serving listener: enabling it never
	// exposes pprof to query clients, and a wedged worker pool can't
	// starve the endpoints needed to debug it.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("eh-server: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("eh-server: pprof listener: %v", err)
			}
		}()
	}

	// SIGTERM/SIGINT: stop accepting requests, drain in-flight ones, then
	// snapshot to -data-dir so the next boot restores instead of
	// re-parsing text loads.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("eh-server: shutdown signal, draining")
		// Flip readiness first so load balancers stop routing here while
		// in-flight requests drain.
		s.SetBootPhase("draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("eh-server: shutdown: %v", err)
		}
		if *dataDir != "" {
			t0 := time.Now()
			cat, err := eng.Snapshot(*dataDir)
			if err != nil {
				log.Printf("eh-server: final snapshot failed: %v", err)
			} else {
				log.Printf("eh-server: snapshotted %s to %s in %v", cat, *dataDir, time.Since(t0))
			}
		}
		// Close the WAL last: if the final snapshot failed (or there is
		// no data dir), its records remain the recovery source.
		if *walDir != "" {
			if err := eng.CloseWAL(); err != nil {
				log.Printf("eh-server: wal close: %v", err)
			}
		}
		s.Close()
	}()

	if err := <-lnErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eh-server:", err)
	os.Exit(1)
}
