package main

import (
	"net/http/httptest"
	"path/filepath"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/server"
	"emptyheaded/internal/wal"
)

// The traced replay of the serve workloads, against internal/server in
// this process.

// localServer is internal/server in this process, behind httptest.
type localServer struct {
	eng *core.Engine
	srv *server.Server
	ts  *httptest.Server
}

// newLocalServer serves env's graph. With a walDir it journals updates
// under fsync=always and compacts at serve_mixed's thresholds.
func newLocalServer(env *embeddedEnv, walDir string) (*localServer, error) {
	eng, err := env.load()
	if err != nil {
		return nil, err
	}
	if walDir != "" {
		eng.SetAutoCompact(0.02, 1024)
		if _, err := eng.OpenWAL(core.WALConfig{Dir: walDir, Sync: wal.SyncAlways}); err != nil {
			return nil, err
		}
	}
	srv := server.New(eng, server.Config{})
	srv.SetBootPhase("ready")
	return &localServer{eng: eng, srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (l *localServer) close() {
	l.ts.Close()
	_ = l.eng.CloseWAL() // scratch log, about to be deleted
	l.srv.Close()
}

// serveOp is one /query of the serve replay, with its spans when tr is
// not nil: op → server.roundtrip → server.elapsed (the server's own
// elapsed_us, centred in the round trip), and client.check.
func serveOp(h *httpClient, in *inputs, q *poolQuery, tr *tracer, op int) (time.Duration, error) {
	t0 := time.Now()
	resp, rtt, err := h.query(in, q)
	t2 := time.Now()
	if resp != nil {
		root := tr.add("op", 0, op, t0, t2)
		rt := tr.add("server.roundtrip", root, op, t0, t0.Add(rtt))
		elapsed := time.Duration(resp.ElapsedUS) * time.Microsecond
		tr.add("server.elapsed", rt, op, t0.Add((rtt-elapsed)/2), t0.Add((rtt+elapsed)/2))
		tr.add("client.check", root, op, t0.Add(rtt), t2)
	}
	return rtt, err
}

// updateOp is one /update of the serve_mixed replay.
func updateOp(h *httpClient, m *mixedModel, tr *tracer, op int) error {
	t0 := time.Now()
	ack, rtt, err := m.update(h)
	if ack != nil {
		root := tr.add("op", 0, op, t0, time.Now())
		rt := tr.add("server.update_roundtrip", root, op, t0, t0.Add(rtt))
		elapsed := time.Duration(ack.ElapsedUS) * time.Microsecond
		tr.add("server.update_elapsed", rt, op, t0.Add((rtt-elapsed)/2), t0.Add((rtt+elapsed)/2))
	}
	return err
}

// serveReplayBlock is the number of consecutive ops of one kind in the
// serve replay (they are some hundred times shorter than embedded ops).
const serveReplayBlock = 50

// replayServe replays the workload's query stream with one caller
// against the server in this process, alternating untraced and traced
// blocks, and writes the trace file. Under serve_mixed every read is
// followed by one update.
func replayServe(cfg runConfig, in *inputs, pool []poolQuery, res *runResult) error {
	walDir := ""
	var model *mixedModel
	if in.def.Mixed {
		walDir = filepath.Join(cfg.Scratch, "replay-wal")
		model = newMixedModel(in.g, cfg.Seed)
	}
	ls, err := newLocalServer(newEmbeddedEnv(in, nil, false), walDir)
	if err != nil {
		return err
	}
	defer ls.close()
	h := newHTTPClient(ls.ts.URL, 1)
	defer h.close()
	zipf := newStratified(zipfSampler(len(pool), zipfS), newRNG(cfg.Seed*1000+99))

	tr := newTracer()
	var plain, traced []float64
	op := 0
	block := func(t *tracer, lat *[]float64) {
		for range serveReplayBlock {
			op++
			rtt, err := serveOp(h, in, &pool[zipf.draw()], t, op)
			res.Attempted++
			if err != nil {
				res.Failed++
			} else {
				*lat = append(*lat, ms(rtt))
			}
			if model != nil {
				op++
				res.Attempted++
				if err := updateOp(h, model, t, op); err != nil {
					res.Failed++
				}
			}
		}
	}
	var warm []float64
	block(nil, &warm)
	deadline := time.Now().Add(cfg.window())
	for time.Now().Before(deadline) {
		block(nil, &plain)
		block(tr, &traced)
	}
	return finishTrace(cfg, tr, op, plain, traced, res)
}
