package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holoclean"
	"holoclean/internal/cluster"
	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/metrics"
	"holoclean/internal/stats"
	"holoclean/internal/store"
	"holoclean/internal/violation"
	"holoclean/serve"
)

// storeFlushPolicy is the durable store's flush policy the served
// workload runs under: serve's defaults.
const storeFlushPolicy = "fsync before ack (group commit), checkpoint every 16 ops, compaction every 2s"

const (
	streamTuples     = 1000
	streamDeltaFrac  = 0.005 // tuples corrupted per batch, as a share of the relation
	checkpointEvery  = 16
	compactEvery     = 2 * time.Second
	repairsPageLimit = 50
	// mirrorCheckBatches is how many batches of each tenant every run
	// replays on an in-process session to check the served repairs; a
	// traced run replays all of them.
	mirrorCheckBatches = 32
	streamF1Floor      = 0.70
	// spanHeader carries a traced request's client span id to the
	// handler wrapper, so both spans of one request share the id.
	spanHeader = "X-Perfbench-Span"
)

// streamErrAttrs are the hospital attributes the delta stream corrupts:
// PhoneNumber (covered by a functional dependency, so detection and the
// conflict hypergraph change) and the Score and Sample measures (only
// the statistics change).
var streamErrAttrs = []int{9, 16, 17}

// streamTenant is one session of the served workload and what the
// client knows about it.
type streamTenant struct {
	id     string
	csv    string
	dcs    string
	attrs  []string
	truth  *dataset.Dataset
	stream *deltaStream
	// acked holds the batches the server acknowledged, in order.
	acked [][]serve.DeltaOp
	// checkRepairs are the session's full repairs as served right after
	// its first checkAt batches were acknowledged.
	checkAt      int
	checkRepairs []serve.RepairInfo
}

// streamRig is one set-up of the served workload: a leader running the
// durable store in cluster mode behind a loopback HTTP listener, a
// log-mirror follower (a cluster.Shipper into its own store) pulling
// the leader's WAL, and one session per tenant.
type streamRig struct {
	dir      string
	leader   string
	sv       *serve.Server
	hs       *http.Server
	served   chan struct{}
	client   *http.Client
	follower *store.Store
	shipped  *countingTransport
	cancel   context.CancelFunc
	shipDone chan struct{}
	tenants  []*streamTenant
}

func runStreamServed(cfg runConfig) (*outcome, error) {
	nproc := runtime.NumCPU()
	opts := holoclean.DefaultOptions()
	opts.Workers = 1
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	release := func(r *streamRig) {
		r.stop()
		os.RemoveAll(r.dir)
	}
	rig, setupS, err := timeSetup(func() (*streamRig, error) {
		r, err := newStreamRig(cfg, opts, nproc, tr)
		if err != nil && r != nil {
			release(r)
		}
		return r, err
	}, release)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(rig.dir)
	out := &outcome{}
	out.set("setup_s", setupS, "s")
	if tr != nil {
		// Spans recorded during the discarded set-ups are not part of
		// the timed phase.
		tr.reset()
	}

	res := rig.drive(cfg, tr)
	out.attempted, out.failed = res.attempted, res.failed
	if len(res.deltas) == 0 {
		rig.stop()
		return nil, errors.New("no delta was acknowledged")
	}
	out.endToEndOps(res.deltas, res.wall, streamTuples, res.allocs)
	out.printf("stream: %d tenants, %d clients, %d-tuple sessions, %d upserts per batch; %d reads, read p50 %.3f ms, p99 %.3f ms",
		len(rig.tenants), len(rig.tenants), streamTuples, 2*rig.tenants[0].stream.size,
		len(res.reads), quantile(msList(res.reads), 0.5), quantile(msList(res.reads), 0.99))
	res.reportDrift(out)

	// The follower must hold every record the leader acknowledged.
	tEnd := time.Now()
	catchup, err := rig.awaitFollower(res.lastAck)
	if err != nil {
		out.fail("follower: %v", err)
	}
	shippedBytes := rig.shipped.n.Load() - res.shippedAtStart

	served, f1, err := rig.finalState()
	if err != nil {
		rig.stop()
		return nil, err
	}
	tStop := time.Now()
	rig.stop()
	tMirror := time.Now()
	out.set("f1", f1.F1, "ratio")
	out.printf("final served datasets against truth: %s", f1)
	if f1.F1 < streamF1Floor {
		out.fail("f1 %.4f is below the floor %.2f", f1.F1, streamF1Floor)
	}

	// Serve replay determinism: the same acknowledged batches applied
	// to an in-process Session give the repairs the server holds.
	mir, err := replayMirrors(rig, opts, tr)
	if err != nil {
		return nil, err
	}
	out.printf("after the timed phase: catch-up and final reads %.2fs, shutdown %.2fs, in-process replay %.2fs",
		tStop.Sub(tEnd).Seconds(), tMirror.Sub(tStop).Seconds(), time.Since(tMirror).Seconds())
	for i, t := range rig.tenants {
		if !repairsEqual(t.checkRepairs, mir.check[i]) {
			out.fail("tenant %s: served repairs after %d batches (%d) differ from the in-process session's (%d)",
				t.id, t.checkAt, len(t.checkRepairs), len(mir.check[i]))
		}
		if tr != nil && !repairsEqual(served[i], mir.final[i]) {
			out.fail("tenant %s: final served repairs (%d) differ from the in-process session's (%d)",
				t.id, len(served[i]), len(mir.final[i]))
		}
	}
	out.printf("serve replay determinism: each tenant's first %d batches replayed in process%s",
		rig.tenants[0].checkAt, map[bool]string{true: ", and every batch", false: ""}[tr != nil])
	if tr == nil {
		return out, nil
	}

	// Per-layer metrics.
	sum := tr.summarize()
	perOp := func(name string, ops int) float64 {
		if lt := sum[name]; lt != nil && ops > 0 {
			return ms(lt.total) / float64(ops)
		}
		return 0
	}
	acked := len(res.deltas)
	batches := mir.batches
	out.set("session.upsert_ms", perOp("session.upsert", batches), "ms")
	out.set("session.reclean_ms", perOp("session.reclean", batches), "ms")
	out.set("violation.detect_delta_ms", perOp("violation.detect_delta", batches), "ms")
	out.set("stats.apply_ms", perOp("stats.apply", batches), "ms")
	out.set("store.append_ms", perOp("store.append", batches), "ms")
	checkpoints := 0
	if lt := sum["store.checkpoint"]; lt != nil {
		checkpoints = lt.n
	}
	out.set("store.checkpoint_ms", perOp("store.checkpoint", checkpoints), "ms")
	out.set("store.wal_bytes_per_op", float64(mir.walBytes)/float64(batches), "B/op")
	planned := res.shards + res.reused
	if planned > 0 {
		out.set("holoclean.shards_reused_frac", res.reused/planned, "ratio")
	}
	out.set("holoclean.shards", res.shards/float64(acked), "count")
	out.set("holoclean.alloc_objects", res.allocObjects/float64(acked), "count")
	handlerN := 0
	if lt := sum["serve.delta_handler"]; lt != nil {
		handlerN = lt.n
	}
	readN := 0
	if lt := sum["serve.read_handler"]; lt != nil {
		readN = lt.n
	}
	clientN := 0
	if lt := sum["client.delta"]; lt != nil {
		clientN = lt.n
	}
	out.set("serve.delta_handler_ms", perOp("serve.delta_handler", handlerN), "ms")
	out.set("serve.read_handler_ms", perOp("serve.read_handler", readN), "ms")
	out.set("serve.read_p99_ms", quantile(msList(res.reads), 0.99), "ms")
	clientSelf := 0.0
	if lt := sum["client.delta"]; lt != nil && clientN > 0 {
		clientSelf = ms(lt.self) / float64(clientN)
	}
	out.set("serve.client_ms", clientSelf, "ms")
	out.set("cluster.catchup_ms", ms(catchup), "ms")
	out.set("cluster.bytes_shipped_per_op", float64(shippedBytes)/float64(acked), "B/op")

	// Coverage: the layers a delta's latency is made of, per delta —
	// the client and HTTP path outside the handler, the session work,
	// the WAL append and the amortized checkpoint — over the untraced
	// delta latency.
	untraced := mean(msList(res.untracedDeltas))
	layers := clientSelf + perOp("session.upsert", batches) + perOp("session.reclean", batches) +
		perOp("store.append", batches) + perOp("store.checkpoint", batches)
	if untraced > 0 && len(res.tracedDeltas) > 0 {
		out.set("trace.coverage", layers/untraced, "ratio")
		out.set("trace.overhead_ms", mean(msList(res.tracedDeltas))-untraced, "ms")
	}
	out.printf("traced: %d of %d deltas carried spans; untraced delta %.2f ms, traced delta %.2f ms; layer times sum to %.2f ms per delta (coverage %.3f)",
		len(res.tracedDeltas), acked, untraced, mean(msList(res.tracedDeltas)), layers, layers/untraced)
	out.printf("served spans, per traced delta:")
	out.report = append(out.report, selfReport(subset(sum, "client.delta", "serve.delta_handler", "client.read", "serve.read_handler"), clientN)...)
	out.printf("mirror-session spans, per batch:")
	out.report = append(out.report, selfReport(subset(sum, "mirror.batch", "session.upsert", "session.reclean",
		"violation.detect_delta", "stats.apply", "store.append", "store.checkpoint"), batches)...)
	out.zeroLayers()
	return out, nil
}

// newStreamRig starts the leader, the follower and the tenants' sessions.
func newStreamRig(cfg runConfig, opts holoclean.Options, nproc int, tr *tracer) (*streamRig, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "stream-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	r := &streamRig{dir: dir, served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	r.leader = "http://" + ln.Addr().String()
	// The standby only occupies a ring position: its mirror is the
	// shipper below, which dials the leader, never the reverse.
	standby := "http://127.0.0.1:0"
	r.sv, err = serve.New(serve.Config{
		Options:           &opts,
		MaxConcurrentJobs: nproc,
		QueueDepth:        nproc,
		StoreDir:          filepath.Join(dir, "leader"),
		CheckpointEvery:   checkpointEvery,
		Self:              r.leader,
		Peers:             []string{r.leader, standby},
		ShipInterval:      time.Second,
		// Compacting every 2 s keeps the 30 s stream stationary: under
		// the 30 s default the log grows all run (each follower poll
		// re-reads it) and the one compaction lands in the last second.
		CompactEvery: compactEvery,
	})
	if err != nil {
		ln.Close()
		return r, err
	}
	r.hs = &http.Server{Handler: &handlerProbe{next: r.sv, tr: tr}}
	go func() {
		defer close(r.served)
		// Serve returns ErrServerClosed once stop shuts it down; an
		// earlier failure shows up as failed requests.
		_ = r.hs.Serve(ln)
	}()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nproc}, Timeout: time.Minute}

	r.follower, err = store.Open(filepath.Join(dir, "follower"))
	if err != nil {
		return r, err
	}
	r.shipped = &countingTransport{base: &http.Transport{}}
	sh, err := cluster.NewShipper(cluster.ShipperConfig{
		Leader: r.leader, Self: standby, Store: r.follower,
		Interval: 20 * time.Millisecond, WaitMS: 1000,
		Client: &http.Client{Transport: r.shipped, Timeout: 30 * time.Second},
	})
	if err != nil {
		return r, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel, r.shipDone = cancel, make(chan struct{})
	go func() {
		defer close(r.shipDone)
		sh.Run(ctx)
	}()

	for i := 0; i < nproc; i++ {
		// The sessions' relations are fixed; the seed drives the delta
		// stream. The final F1 then reflects the stream and the
		// program, not which errors one draw of the data holds.
		g := datagen.Hospital(datagen.Config{Tuples: streamTuples, Seed: int64(i + 1)})
		var csv bytes.Buffer
		if err := g.Dirty.WriteCSV(&csv); err != nil {
			return r, err
		}
		var dcs strings.Builder
		for _, c := range g.Constraints {
			fmt.Fprintf(&dcs, "%s: %s\n", c.Name, c.String())
		}
		body, err := json.Marshal(serve.CreateRequest{CSV: csv.String(), Constraints: dcs.String()})
		if err != nil {
			return r, err
		}
		var info serve.SessionInfo
		if err := r.call("POST", "/sessions", body, &info, -1); err != nil {
			return r, fmt.Errorf("creating tenant %d: %w", i, err)
		}
		rows := make([][]string, g.Dirty.NumTuples())
		for t := range rows {
			rows[t] = make([]string, g.Dirty.NumAttrs())
			for a := range rows[t] {
				rows[t][a] = g.Dirty.GetString(t, a)
			}
		}
		r.tenants = append(r.tenants, &streamTenant{
			id: info.ID, csv: csv.String(), dcs: dcs.String(), attrs: g.Dirty.Attrs(), truth: g.Truth,
			stream: newDeltaStream(cfg.seed*int64(nproc)+int64(i), rows, streamErrAttrs, streamDeltaFrac),
		})
	}
	return r, nil
}

// stop shuts the follower, the HTTP listener and the server down and
// waits for their goroutines. Safe to call on a partial set-up and more
// than once.
func (r *streamRig) stop() {
	if r.cancel != nil {
		r.cancel()
		<-r.shipDone
		r.cancel = nil
	}
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := r.hs.Shutdown(ctx); err != nil {
			r.hs.Close()
		}
		cancel()
		<-r.served
		r.hs = nil
	}
	if r.sv != nil {
		r.sv.Close()
		r.sv = nil
	}
	if r.follower != nil {
		r.follower.Close()
		r.follower = nil
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.shipped != nil {
		r.shipped.base.CloseIdleConnections()
	}
}

// call sends one request with a JSON body (nil for none) and decodes
// the JSON response into into (nil to discard it); a status outside 2xx
// is an error. A span id of 0 or more marks a traced request.
func (r *streamRig) call(method, path string, body []byte, into any, span int) error {
	req, err := http.NewRequest(method, r.leader+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(raw, into)
}

// streamResult is what the timed phase measured.
type streamResult struct {
	attempted, failed int
	deltas            []time.Duration // acknowledged deltas, client-observed
	reads             []time.Duration // successful repairs-page reads
	tracedDeltas      []time.Duration
	untracedDeltas    []time.Duration
	noisy             []float64 // noisy cells per acknowledged delta (per client)
	wall              time.Duration
	allocs            uint64
	lastAck           time.Time
	shippedAtStart    int64
	shards, reused    float64
	allocObjects      float64
	// clients holds each client's own share, in step order.
	clients []streamResult
}

// drive runs the closed loop: one client per tenant, each step posting a
// delta batch to its own session, waiting for the ack, then reading a
// repairs page of the next tenant's session.
func (r *streamRig) drive(cfg runConfig, tr *tracer) *streamResult {
	res := &streamResult{shippedAtStart: r.shipped.n.Load()}
	clients := make([]streamResult, len(r.tenants))
	a0 := heapAllocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range r.tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.client1(cfg, tr, start, r.tenants[i], r.tenants[(i+1)%len(r.tenants)], &clients[i])
		}(i)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.clients = clients
	res.allocs = heapAllocBytes() - a0
	for i := range clients {
		c := &clients[i]
		res.attempted += c.attempted
		res.failed += c.failed
		res.deltas = append(res.deltas, c.deltas...)
		res.reads = append(res.reads, c.reads...)
		res.tracedDeltas = append(res.tracedDeltas, c.tracedDeltas...)
		res.untracedDeltas = append(res.untracedDeltas, c.untracedDeltas...)
		res.shards += c.shards
		res.reused += c.reused
		res.allocObjects += c.allocObjects
		if c.lastAck.After(res.lastAck) {
			res.lastAck = c.lastAck
		}
	}
	return res
}

// client1 is one closed-loop client.
func (r *streamRig) client1(cfg runConfig, tr *tracer, start time.Time, own, next *streamTenant, out *streamResult) {
	for step := 0; time.Since(start).Seconds() < cfg.seconds; step++ {
		// In a traced run every other step carries spans; the untraced
		// steps give the tracing overhead within the same run.
		traced := tr != nil && step%2 == 1
		batch := own.stream.next()
		body, err := json.Marshal(serve.DeltaRequest{Ops: batch})
		if err != nil {
			panic(err) // a DeltaRequest always encodes
		}
		var dres serve.DeltaResponse
		out.attempted++
		d, err := r.timed(tr, traced, "client.delta", "POST", "/sessions/"+own.id+"/deltas", body, &dres)
		if err != nil {
			out.failed++
		} else {
			own.acked = append(own.acked, batch)
			if len(own.acked) == mirrorCheckBatches {
				out.attempted++
				if err := r.snapshotRepairs(own); err != nil {
					out.failed++
				}
			}
			out.deltas = append(out.deltas, d)
			out.lastAck = time.Now()
			if traced {
				out.tracedDeltas = append(out.tracedDeltas, d)
			} else {
				out.untracedDeltas = append(out.untracedDeltas, d)
			}
			if st := dres.Stats; st != nil {
				out.noisy = append(out.noisy, float64(st.NoisyCells))
				out.shards += float64(st.Shards)
				out.reused += float64(st.ShardsReused)
				out.allocObjects += float64(st.AllocObjects)
			}
		}
		var page serve.RepairPage
		out.attempted++
		d, err = r.timed(tr, traced, "client.read", "GET", "/sessions/"+next.id+"/repairs?limit="+strconv.Itoa(repairsPageLimit), nil, &page)
		if err != nil || len(page.Items) > repairsPageLimit {
			out.failed++
		} else {
			out.reads = append(out.reads, d)
		}
	}
}

// snapshotRepairs records the tenant's full served repairs as of its
// acknowledged batches so far.
func (r *streamRig) snapshotRepairs(t *streamTenant) error {
	var page serve.RepairPage
	if err := r.call("GET", "/sessions/"+t.id+"/repairs", nil, &page, -1); err != nil {
		return err
	}
	t.checkAt, t.checkRepairs = len(t.acked), page.Items
	return nil
}

// timed performs one call and returns its client-observed latency,
// from sending the request to the decoded response. A traced call opens
// a client span and passes its id to the handler wrapper.
func (r *streamRig) timed(tr *tracer, traced bool, span, method, path string, body []byte, into any) (time.Duration, error) {
	start := time.Now()
	id := -1
	if traced {
		id = tr.start(span, -1)
	}
	err := r.call(method, path, body, into, id)
	if traced {
		tr.end(id)
	}
	return time.Since(start), err
}

// reportDrift reports whether the stream stayed stationary: per client,
// the first and last fifty acknowledged deltas' median latency and mean
// noisy cells.
func (res *streamResult) reportDrift(out *outcome) {
	for i, c := range res.clients {
		k := min(50, len(c.deltas)/2, len(c.noisy)/2)
		if k == 0 {
			continue
		}
		lat := msList(c.deltas)
		out.printf("drift, client %d: delta median first %d %.2f ms, last %d %.2f ms; noisy cells first %.1f, last %.1f",
			i, k, median(lat[:k]), k, median(lat[len(lat)-k:]), mean(c.noisy[:k]), mean(c.noisy[len(c.noisy)-k:]))
	}
}

// awaitFollower waits until the follower's copy of every tenant's log
// holds the leader's last sequence number, and returns how long after
// the last ack that happened.
func (r *streamRig) awaitFollower(lastAck time.Time) (time.Duration, error) {
	var logs []cluster.LogInfo
	if err := r.call("GET", cluster.PathLogs, nil, &logs, -1); err != nil {
		return 0, err
	}
	if len(logs) != len(r.tenants) {
		return 0, fmt.Errorf("leader catalog lists %d logs, want %d", len(logs), len(r.tenants))
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		behind := 0
		for _, li := range logs {
			l, err := r.follower.Log(li.ID)
			if err != nil {
				return 0, err
			}
			if l.Stats().Seq < li.Seq {
				behind++
			}
		}
		if behind == 0 {
			return time.Since(lastAck), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%d tenant logs still behind the leader after 30s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

// finalState reads every tenant's repairs and repaired dataset from the
// server and scores the datasets against truth, pooled over tenants.
func (r *streamRig) finalState() ([][]serve.RepairInfo, metrics.Eval, error) {
	var pooled metrics.Eval
	var all [][]serve.RepairInfo
	for _, t := range r.tenants {
		var page serve.RepairPage
		if err := r.call("GET", "/sessions/"+t.id+"/repairs", nil, &page, -1); err != nil {
			return nil, pooled, err
		}
		all = append(all, page.Items)
		if t.checkRepairs == nil {
			t.checkAt, t.checkRepairs = len(t.acked), page.Items
		}
		resp, err := r.client.Get(r.leader + "/sessions/" + t.id + "/dataset")
		if err != nil {
			return nil, pooled, err
		}
		repaired, err := dataset.ReadCSV(resp.Body, "")
		resp.Body.Close()
		if err != nil {
			return nil, pooled, fmt.Errorf("reading served dataset: %w", err)
		}
		dirty := dataset.New(t.attrs)
		for _, row := range t.stream.cur {
			dirty.Append(row)
		}
		ev, err := metrics.Evaluate(dirty, repaired, t.truth)
		if err != nil {
			return nil, pooled, err
		}
		pooled.Repairs += ev.Repairs
		pooled.CorrectRepairs += ev.CorrectRepairs
		pooled.Errors += ev.Errors
	}
	if pooled.Repairs > 0 {
		pooled.Precision = float64(pooled.CorrectRepairs) / float64(pooled.Repairs)
	}
	if pooled.Errors > 0 {
		pooled.Recall = float64(pooled.CorrectRepairs) / float64(pooled.Errors)
	}
	if pooled.Precision+pooled.Recall > 0 {
		pooled.F1 = 2 * pooled.Precision * pooled.Recall / (pooled.Precision + pooled.Recall)
	}
	return all, pooled, nil
}

// mirrorResult is the outcome of replaying the acknowledged batches:
// per tenant the repairs after checkAt batches and after the last one
// replayed.
type mirrorResult struct {
	check, final [][]serve.RepairInfo
	batches      int
	walBytes     int64
}

// replayMirrors applies each tenant's acknowledged batches, in order, to
// an in-process holoclean.Session with the server's session options, one
// goroutine per tenant: the first checkAt batches, or in a traced run
// all of them. In a traced run each batch also carries spans
// around the session calls and around probe calls into the layers the
// session runs internally: scoped violation detection and delta
// statistics on a copy of the relation, a WAL append of the batch to a
// store of the benchmark's own, and every 16th batch a checkpoint
// (Session.Snapshot appended to that store).
func replayMirrors(rig *streamRig, opts holoclean.Options, tr *tracer) (*mirrorResult, error) {
	n := len(rig.tenants)
	res := &mirrorResult{check: make([][]serve.RepairInfo, n), final: make([][]serve.RepairInfo, n)}
	var st *store.Store
	if tr != nil {
		var err error
		if st, err = store.Open(filepath.Join(rig.dir, "mirror")); err != nil {
			return nil, err
		}
		defer st.Close()
	}
	errs := make([]error, len(rig.tenants))
	walBytes := make([]int64, len(rig.tenants))
	var wg sync.WaitGroup
	for i, t := range rig.tenants {
		wg.Add(1)
		go func(i int, t *streamTenant) {
			defer wg.Done()
			res.check[i], res.final[i], walBytes[i], errs[i] = replayMirror(t, opts, tr, st)
		}(i, t)
	}
	wg.Wait()
	for i, t := range rig.tenants {
		if errs[i] != nil {
			return nil, fmt.Errorf("mirror of %s: %w", t.id, errs[i])
		}
		if tr != nil {
			res.batches += len(t.acked)
		}
		res.walBytes += walBytes[i]
	}
	return res, nil
}

func replayMirror(t *streamTenant, opts holoclean.Options, tr *tracer, st *store.Store) (check, final []serve.RepairInfo, wal int64, err error) {
	ds, err := holoclean.ReadCSV(strings.NewReader(t.csv), "")
	if err != nil {
		return nil, nil, 0, err
	}
	cons, err := holoclean.ParseConstraints(strings.NewReader(t.dcs))
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := holoclean.NewSession(ds, cons, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	last, err := s.Clean()
	if err != nil {
		return nil, nil, 0, err
	}
	batches := t.acked[:t.checkAt]
	var probe *layerProbe
	if tr != nil {
		batches = t.acked
		if probe, err = newLayerProbe(t, cons, st); err != nil {
			return nil, nil, 0, err
		}
	}
	if t.checkAt == 0 {
		check = repairInfos(last)
	}
	for i, batch := range batches {
		root := -1
		if tr != nil {
			root = tr.start("mirror.batch", -1)
			tr.do("session.upsert", root, func() { err = upsertAll(s, batch) })
		} else {
			err = upsertAll(s, batch)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if tr != nil {
			tr.do("session.reclean", root, func() { last, err = s.Reclean() })
		} else {
			last, err = s.Reclean()
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if probe != nil {
			if err := probe.batch(tr, root, s, batch, (i+1)%checkpointEvery == 0); err != nil {
				return nil, nil, 0, err
			}
			tr.end(root)
		}
		if i+1 == t.checkAt {
			check = repairInfos(last)
		}
	}
	if probe != nil {
		wal = probe.log.Stats().WALBytes - probe.wal0
	}
	return check, repairInfos(last), wal, nil
}

func repairInfos(res *holoclean.Result) []serve.RepairInfo {
	out := make([]serve.RepairInfo, len(res.Repairs))
	for i, rp := range res.Repairs {
		out[i] = serve.RepairInfo{Tuple: rp.Tuple, Attr: rp.Attr, Old: rp.Old, New: rp.New, Probability: rp.Probability}
	}
	return out
}

func upsertAll(s *holoclean.Session, batch []serve.DeltaOp) error {
	for _, op := range batch {
		if _, err := s.Upsert(op.Row, op.Values); err != nil {
			return err
		}
	}
	return nil
}

// layerProbe times, per batch, the layer calls a Session makes inside
// Reclean that no span can reach from outside: scoped violation
// detection and delta statistics, run on the probe's own copy of the
// relation, plus the durable store's append and checkpoint on a log of
// the benchmark's own.
type layerProbe struct {
	ds    *dataset.Dataset
	cons  []*holoclean.Constraint
	prev  []violation.Violation
	stats *stats.Stats
	log   *store.Log
	wal0  int64
}

func newLayerProbe(t *streamTenant, cons []*holoclean.Constraint, st *store.Store) (*layerProbe, error) {
	ds, err := dataset.ReadCSV(strings.NewReader(t.csv), "")
	if err != nil {
		return nil, err
	}
	det, err := violation.NewDetector(ds, cons)
	if err != nil {
		return nil, err
	}
	l, err := st.Log(t.id)
	if err != nil {
		return nil, err
	}
	return &layerProbe{ds: ds, cons: cons, prev: det.Detect(), stats: stats.Collect(ds), log: l, wal0: l.Stats().WALBytes}, nil
}

func (p *layerProbe) batch(tr *tracer, root int, s *holoclean.Session, batch []serve.DeltaOp, checkpoint bool) error {
	changed := make(map[int]bool, len(batch))
	var removed, added []stats.TupleView
	for _, op := range batch {
		removed = append(removed, stats.View(append([]dataset.Value(nil), p.ds.Row(op.Row)...), nil))
		for a, v := range op.Values {
			p.ds.SetString(op.Row, a, v)
		}
		added = append(added, stats.View(p.ds.Row(op.Row), nil))
		changed[op.Row] = true
	}
	var err error
	tr.do("violation.detect_delta", root, func() {
		var det *violation.Detector
		if det, err = violation.NewDetector(p.ds, p.cons); err == nil {
			p.prev = det.DetectDelta(p.prev, changed)
		}
	})
	if err != nil {
		return err
	}
	tr.do("stats.apply", root, func() { p.stats.Apply(removed, added) })
	tr.do("store.append", root, func() { err = p.log.Append(store.OpDeltas, serve.DeltaRequest{Ops: batch}) })
	if err != nil || !checkpoint {
		return err
	}
	tr.do("store.checkpoint", root, func() {
		var buf bytes.Buffer
		if err = s.Snapshot(&buf); err == nil {
			err = p.log.Append(store.OpCheckpoint, struct {
				Session json.RawMessage `json:"session"`
			}{json.RawMessage(bytes.TrimSpace(buf.Bytes()))})
		}
	})
	return err
}

// repairsEqual compares two repair lists field by field.
func repairsEqual(a, b []serve.RepairInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// handlerProbe wraps the server's http.Handler: a request carrying a
// client span id gets a handler span under it, named by route.
type handlerProbe struct {
	next http.Handler
	tr   *tracer
}

func (p *handlerProbe) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	parent, err := strconv.Atoi(req.Header.Get(spanHeader))
	if p.tr == nil || err != nil {
		p.next.ServeHTTP(w, req)
		return
	}
	name := "serve.read_handler"
	if req.Method == http.MethodPost {
		name = "serve.delta_handler"
	}
	id := p.tr.start(name, parent)
	p.next.ServeHTTP(w, req)
	p.tr.end(id)
}

// countingTransport counts the response body bytes the follower's
// shipper receives from the leader.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.n}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// subset keeps the named entries of a span summary.
func subset(sum map[string]*layerTimes, names ...string) map[string]*layerTimes {
	out := make(map[string]*layerTimes)
	for _, n := range names {
		if lt := sum[n]; lt != nil {
			out[n] = lt
		}
	}
	return out
}
