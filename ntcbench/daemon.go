package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ntcsim/internal/experiments"
	"ntcsim/internal/rng"
	"ntcsim/internal/service"
)

// The daemon-mix workload: an in-process ntcsimd job engine on a loopback
// listener, driven over HTTP by a closed-loop client of nproc connections
// (each connection sends its next job only after the previous one settled)
// following a seeded job plan. Every job is submit -> SSE until the
// terminal event -> download the report.

// Step kinds of the job plan.
const (
	kindPrime  = "prime"    // first run of a pooled scaling key: a real sweep
	kindFresh  = "fresh"    // analytic experiment on a fresh seed: a cache miss with little compute
	kindResub  = "resubmit" // a key that finished earlier in the plan: a cache hit
	kindPool   = "pool"     // scaling on a pooled seed after its prime: a cache hit
	kindDup    = "dup"      // one fresh fig1 key submitted twice back to back
	kindCancel = "cancel"   // a fresh scaling job cancelled right after submission
)

// analytic are the experiments that compute no sweep.
var analytic = []string{"fig1", "table1", "variation", "darksilicon"}

// The plan's composition is fixed; the seed picks the order, the fresh
// seeds and which earlier key each cache hit names. A fixed composition
// keeps the latency percentiles comparable between seeds.
//
// No recorded ntcsimd traffic exists to sample the mix from, so its
// shares are an assumption. Each count is instead the smallest that a
// stated need allows; rebuild the mix from job logs if real ones appear.
// The needs rest on the latency groups a traced run prints per part
// (logPartLatencies): the cache hits and the table1, variation and
// darksilicon misses all take well under a millisecond, the fig1 misses
// and duplicates tens of ms, and the scaling primes a sweep each.
// TestMixPercentileGroups checks the arithmetic.
const (
	// resubmits and poolHits: each kind of cache hit has minBeyond jobs,
	// enough for a median of its own. The resulting cache-hit share, 20
	// of 126 submissions (16%), is the assumption the mix makes.
	resubmits = minBeyond
	poolHits  = minBeyond
	// freshPerExperiment is the smallest count of fresh jobs per analytic
	// experiment that puts op_p50_ms among the sub-millisecond jobs and
	// op_p90_ms among the fig1 jobs, each with at least minBeyond jobs of
	// its group on either side, so no percentile sits on a boundary
	// between groups whose latencies differ a hundredfold. It also makes
	// the plan complete at least 100 jobs.
	freshPerExperiment = 24
	// dupPairs: dup_computes reads 3 today and 0 under single-flight, so
	// a fix that coalesces only some pairs reads in between.
	dupPairs = 3
	// cancels: enough to check the DELETE path every run. Cancels are not
	// in the latency sample, so they move no percentile.
	cancels = 2
	// poolSize: the primes are the plan's only sweeps, one per client
	// connection on a 2-CPU host, which keeps sweeps a small share.
	poolSize = 2
	// freshLead fresh steps open the body, so every resubmission has a
	// key at least resubmitGap steps back to name.
	freshLead   = 16
	resubmitGap = 8
)

// step is one entry of the job plan.
type step struct {
	Kind string
	Exp  string
	Seed uint64
	Src  int // body index whose key a resubmission repeats
}

// mixPlan returns the job plan for a seed: the prime steps, which run
// first, then the body. The same seed always yields the same plan.
func mixPlan(seed uint64) (prime, body []step) {
	r := rng.New(seed).Derive("ntcbench/daemon-mix")
	used := map[uint64]bool{experiments.DefaultSeed: true}
	fresh := func() uint64 {
		for {
			if s := 1 + r.Uint64n(1<<40); !used[s] {
				used[s] = true
				return s
			}
		}
	}
	pool := make([]uint64, poolSize)
	for i := range pool {
		pool[i] = fresh()
		prime = append(prime, step{Kind: kindPrime, Exp: "scaling", Seed: pool[i]})
	}
	var freshSteps []step
	for _, exp := range analytic {
		for i := 0; i < freshPerExperiment; i++ {
			freshSteps = append(freshSteps, step{Kind: kindFresh, Exp: exp})
		}
	}
	shuffle(r, freshSteps)
	rest := append([]step(nil), freshSteps[freshLead:]...)
	for _, k := range []struct {
		kind string
		n    int
	}{{kindResub, resubmits}, {kindPool, poolHits}, {kindDup, dupPairs}, {kindCancel, cancels}} {
		for i := 0; i < k.n; i++ {
			rest = append(rest, step{Kind: k.kind})
		}
	}
	shuffle(r, rest)
	body = append(append([]step(nil), freshSteps[:freshLead]...), rest...)
	for i := range body {
		st := &body[i]
		switch st.Kind {
		case kindFresh:
			st.Seed = fresh()
		case kindCancel:
			st.Exp, st.Seed = "scaling", fresh()
		case kindDup:
			// fig1 is the analytic job that computes long enough (tens of
			// ms) for the second submission to arrive before the first
			// settles, so both are cache misses.
			st.Exp, st.Seed = "fig1", fresh()
		case kindPool:
			st.Exp, st.Seed = "scaling", pool[r.Intn(poolSize)]
		case kindResub:
			var cands []int
			for j := 0; j <= i-resubmitGap; j++ {
				if body[j].Kind == kindFresh {
					cands = append(cands, j)
				}
			}
			st.Src = cands[r.Intn(len(cands))]
			st.Exp, st.Seed = body[st.Src].Exp, body[st.Src].Seed
		}
	}
	return prime, body
}

// shuffle is a Fisher-Yates shuffle on the plan's own stream.
func shuffle(r *rng.Stream, s []step) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// jobParams are the parameters of every daemon job: the step's seed and
// the golden warmup knobs.
func jobParams(seed uint64) experiments.Params {
	return experiments.Params{Seed: seed, WarmInstr: 200_000, SettleCycles: 10_000}
}

func refKey(exp string, seed uint64) string { return fmt.Sprintf("%s/%d", exp, seed) }

// jobRec is what the client observed of one job.
type jobRec struct {
	kind, exp string
	seed      uint64
	state     string
	running   bool // a "running" state event arrived
	gotReport bool
	reportSum [sha256.Size]byte // the report itself is not kept
	// Client-side times: POST round trip, submit to running, running to
	// terminal, report download, and submit to the terminal SSE event.
	submitMs, queueMs, runMs, resultMs, latencyMs float64
	err                                           error
}

type daemonMix struct {
	c     *child
	svc   *service.Server
	srv   *http.Server
	base  string
	hc    *http.Client
	prime []step
	body  []step
	refs  map[string][sha256.Size]byte // digest of each reference report
	recs  []jobRec                     // the last timed part's jobs, plan order
}

func newDaemonMix(c *child) runner { return &daemonMix{c: c} }

// prepare computes the reference of every key the plan completes with a
// direct experiments.Run, in a process of its own, and writes their
// digests to the run's shared file. Computing them outside the timed
// children means no child has run a key before its daemon does.
func (d *daemonMix) prepare(ctx context.Context) error {
	prime, body := mixPlan(d.c.seed)
	refs := map[string]string{}
	for _, st := range append(prime, body...) {
		if _, ok := refs[refKey(st.Exp, st.Seed)]; ok || st.Kind == kindCancel {
			continue
		}
		var buf bytes.Buffer
		if _, err := experiments.Run(ctx, st.Exp, jobParams(st.Seed), experiments.Env{Out: &buf, Jobs: 1}); err != nil {
			return fmt.Errorf("reference %s seed %d: %w", st.Exp, st.Seed, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		refs[refKey(st.Exp, st.Seed)] = hex.EncodeToString(sum[:])
	}
	data, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(d.c.shared, data, 0o644)
}

func (d *daemonMix) setup(ctx context.Context) error {
	d.prime, d.body = mixPlan(d.c.seed)
	// Only digests of the references are kept, so held_heap_mb measures
	// the daemon's heap rather than the harness's reference data.
	data, err := os.ReadFile(d.c.shared)
	if err != nil {
		return fmt.Errorf("reference digests: %w", err)
	}
	var refs map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		return fmt.Errorf("reference digests: %w", err)
	}
	d.refs = make(map[string][sha256.Size]byte, len(refs))
	for k, h := range refs {
		var sum [sha256.Size]byte
		if len(h) != hex.EncodedLen(len(sum)) {
			return fmt.Errorf("reference digest of %s: %q", k, h)
		}
		if _, err := hex.Decode(sum[:], []byte(h)); err != nil {
			return fmt.Errorf("reference digest of %s: %q", k, h)
		}
		d.refs[k] = sum
	}
	// Workers x Jobs = nproc: the daemon never asks for more CPUs than
	// the host has.
	d.svc = service.New(service.Config{Workers: nproc(), Jobs: 1, Obs: d.c.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.svc.Handler()}
	go d.srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed at close
	d.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc(), DisableCompression: true,
	}}
	return nil
}

// exactCounts: whether a duplicate submission hits the cache, and how far
// a cancelled scaling job got, depend on timing, so the daemon's counters
// do not repeat exactly; the byte identity of every job's report is the
// daemon-mix gate.
func (d *daemonMix) exactCounts() bool { return false }

func (d *daemonMix) close() {
	if d.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hc.CloseIdleConnections()
	d.srv.Shutdown(ctx) //nolint:errcheck // best effort: the process exits next
	d.svc.Drain(ctx)    //nolint:errcheck // best effort: the process exits next
}

func (d *daemonMix) timed(ctx context.Context) (outcome, error) {
	d.recs = nil
	primeRecs := d.drive(ctx, d.prime)
	bodyRecs := d.drive(ctx, d.body)
	var out outcome
	for _, group := range [][][]jobRec{primeRecs, bodyRecs} {
		for _, recs := range group {
			for _, r := range recs {
				d.recs = append(d.recs, r)
				d.judge(&out, r)
			}
		}
	}
	return out, nil
}

// judge checks one job against its reference and books it into out.
func (d *daemonMix) judge(out *outcome, r jobRec) {
	out.attempted++
	switch {
	case r.err != nil:
		out.fail("%s %s seed %d: %v", r.kind, r.exp, r.seed, r.err)
	case r.kind == kindCancel:
		if r.state != string(service.StateCanceled) {
			out.fail("cancelled %s seed %d settled %s", r.exp, r.seed, r.state)
		}
	case r.state != string(service.StateDone):
		out.fail("%s %s seed %d settled %s", r.kind, r.exp, r.seed, r.state)
	case r.reportSum != d.refs[refKey(r.exp, r.seed)]:
		out.fail("%s %s seed %d: report differs from a direct experiments.Run", r.kind, r.exp, r.seed)
	default:
		out.units++
		out.opsMs = append(out.opsMs, r.latencyMs)
		out.digest = fmt.Appendf(out.digest, "%s|%d|%x\n", r.exp, r.seed, r.reportSum)
	}
}

// drive runs steps on nproc closed-loop client goroutines, each taking
// the next unstarted step when its previous one settled. It returns the
// job records per step, in plan order.
func (d *daemonMix) drive(ctx context.Context, steps []step) [][]jobRec {
	recs := make([][]jobRec, len(steps))
	done := make([]chan struct{}, len(steps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(steps) {
					return
				}
				if st := steps[i]; st.Kind == kindResub {
					// A resubmission names a finished key; wait for it.
					select {
					case <-done[st.Src]:
					case <-ctx.Done():
					}
				}
				recs[i] = d.do(ctx, steps[i])
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// do executes one step and returns its jobs.
func (d *daemonMix) do(ctx context.Context, st step) []jobRec {
	n := 1
	if st.Kind == kindDup {
		n = 2
	}
	recs := make([]jobRec, n)
	ids := make([]string, n)
	starts := make([]time.Time, n)
	for i := range recs {
		recs[i] = jobRec{kind: st.Kind, exp: st.Exp, seed: st.Seed}
		starts[i] = now()
		ids[i], recs[i].err = d.submit(ctx, st.Exp, st.Seed)
		recs[i].submitMs = ms(since(starts[i]))
	}
	if st.Kind == kindCancel && recs[0].err == nil {
		recs[0].err = d.cancel(ctx, ids[0])
	}
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		if r.err = d.watch(ctx, ids[i], starts[i], r); r.err != nil || r.state != string(service.StateDone) {
			continue
		}
		t := now()
		report, err := d.get(ctx, "/v1/jobs/"+ids[i]+"/result", http.StatusOK)
		r.resultMs = ms(since(t))
		r.gotReport, r.reportSum, r.err = err == nil, sha256.Sum256(report), err
	}
	return recs
}

// submit POSTs one job and returns its id.
func (d *daemonMix) submit(ctx context.Context, exp string, seed uint64) (string, error) {
	params, err := json.Marshal(jobParams(seed))
	if err != nil {
		return "", err
	}
	body, err := json.Marshal(map[string]any{"experiment": exp, "params": json.RawMessage(params)})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	data, err := d.roundTrip(req, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var st service.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return "", fmt.Errorf("submit response: %v", err)
	}
	return st.ID, nil
}

// cancel DELETEs a job; 202 is the only accepted answer.
func (d *daemonMix) cancel(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, d.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	_, err = d.roundTrip(req, http.StatusAccepted)
	return err
}

// get GETs a path and requires the given status.
func (d *daemonMix) get(ctx context.Context, path string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	return d.roundTrip(req, want)
}

func (d *daemonMix) roundTrip(req *http.Request, want int) ([]byte, error) {
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// watch follows a job's SSE stream to its terminal state event, timing
// the running and terminal transitions as the client sees them.
func (d *daemonMix) watch(ctx context.Context, id string, submitted time.Time, r *jobRec) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	var runningAt time.Time
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("events of %s ended before a terminal state", id)
			}
			return err
		}
		data, ok := strings.CutPrefix(strings.TrimRight(line, "\n"), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events of %s: %v", id, err)
		}
		if ev.Type != "state" {
			continue
		}
		at := now()
		if ev.State == service.StateRunning {
			r.running, runningAt = true, at
			r.queueMs = ms(at.Sub(submitted)) - r.submitMs
		}
		if ev.State.Terminal() {
			r.state = string(ev.State)
			r.latencyMs = ms(at.Sub(submitted))
			if r.running {
				r.runMs = ms(at.Sub(runningAt))
			}
			// The server ends the stream after a terminal event; reading
			// to EOF lets the connection be reused.
			_, err := io.Copy(io.Discard, br)
			return err
		}
	}
}

// trace reports the client-side service latencies of the traced timed
// part and the daemon's own /metrics.
func (d *daemonMix) trace(ctx context.Context, layers map[string]float64) error {
	var submit, queue, run, result []float64
	var failed, cancelled, dups float64
	dupRunning := map[string]int{}
	for _, r := range d.recs {
		submit = append(submit, r.submitMs)
		if r.running && r.kind != kindCancel {
			queue = append(queue, r.queueMs)
			run = append(run, r.runMs)
		}
		if r.gotReport {
			result = append(result, r.resultMs)
		}
		if r.state == string(service.StateCanceled) {
			cancelled++
		}
		if r.err != nil || (r.kind != kindCancel && r.state != string(service.StateDone)) {
			failed++
		}
		if r.kind == kindDup && r.running {
			if dupRunning[refKey(r.exp, r.seed)]++; dupRunning[refKey(r.exp, r.seed)] == 2 {
				dups++
			}
		}
	}
	layers["service.submit_ms"] = median(submit)
	layers["service.queue_wait_ms"] = median(queue)
	layers["service.run_ms"] = median(run)
	layers["service.result_ms"] = median(result)
	layers["service.dup_computes"] = dups
	layers["service.cancelled"] = cancelled
	layers["service.fail_ratio"] = failed / float64(len(d.recs))
	logPartLatencies(d.recs)

	data, err := d.get(ctx, "/metrics", http.StatusOK)
	if err != nil {
		return err
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("/metrics: %v", err)
	}
	if sub := snap.Counters["service/jobs_submitted"]; sub > 0 {
		layers["service.cache_hit_ratio"] = float64(snap.Counters["service/cache_hits"]) / float64(sub)
	}
	return nil
}

// logPartLatencies prints the median submit-to-terminal latency of each
// part of the mix, fastest first, so the latency groups the plan's
// composition rests on can be checked against a traced run.
func logPartLatencies(recs []jobRec) {
	byPart := map[string][]float64{}
	for _, r := range recs {
		if r.state != string(service.StateDone) {
			continue
		}
		part := r.kind
		if r.kind == kindFresh {
			part += " " + r.exp
		}
		byPart[part] = append(byPart[part], r.latencyMs)
	}
	parts := make([]string, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return median(byPart[parts[i]]) < median(byPart[parts[j]]) })
	for _, p := range parts {
		fmt.Fprintf(os.Stderr, "ntcbench: daemon-mix %-18s %3d jobs, median %8.3f ms\n", p, len(byPart[p]), median(byPart[p]))
	}
}
