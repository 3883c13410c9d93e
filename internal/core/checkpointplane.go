// The checkpoint plane (DESIGN.md §12): periodic durable checkpoints of
// every stateful query, replicated to K peer entities over the reliable
// control plane, plus the portal-side machinery recovery needs — the
// per-query monotonic checkpoint sequence (assigned here so it survives
// the query moving between hosts), bounded per-stream upstream replay
// rings trimmed by quorum acks, and the fetch protocol that locates the
// newest surviving record after an entity dies.
//
// Follows the plane idiom (statsplane.go): a positive interval puts the
// sweep on the control clock (clock.go); with a non-positive interval
// tests drive the sweep deterministically (CheckpointTick, test-only).
//
// Lock order: f.mu before p.mu, never the reverse. Replica callbacks
// (quorum, fetch responses) run on transport goroutines and take only
// p.mu.
package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"sspd/internal/checkpoint"
	"sspd/internal/engine"
	"sspd/internal/metrics"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

const (
	// defaultReplayRingCap bounds one stream's upstream replay ring; it
	// matches the entity pause-buffer bound so a full-ring replay can
	// always be buffered by a recovering gate.
	defaultReplayRingCap = 1 << 15
	// recoveryFetchTimeout bounds the wait for surviving replicas to
	// answer a recovery fetch; on SimNet every reachable replica
	// answers in a few hops, so the deadline only matters when replicas
	// died with the entity.
	recoveryFetchTimeout = 2 * time.Second
)

// ckptID names an entity's (or the portal's) checkpoint endpoint; the
// "<owner>/ckpt" shape lets entityForEndpoint map give-ups back to the
// entity for failure suspicion.
func ckptID(owner string) simnet.NodeID {
	return simnet.NodeID(owner + "/ckpt")
}

type ckptPlane struct {
	f      *Federation
	k      int // replicas per checkpoint
	quorum int // distinct acks before a checkpoint counts as durable

	mu       sync.Mutex
	replicas map[string]*checkpoint.Replica // entity -> replica
	portal   *checkpoint.Replica
	seqs     map[string]uint64 // query -> last assigned checkpoint seq
	// written marks queries with at least one checkpoint attempt; until
	// such a query is quorum-acked it pins its streams' rings at 0.
	written map[string]bool
	// ackedMarks holds each query's newest quorum-acked marks — the
	// trim floor contribution per stream.
	ackedMarks map[string]map[string]uint64
	streamsOf  map[string][]string
	rings      map[string]*replayRing // stream -> replay ring
	fetches    map[string]*fetchWait  // query -> in-flight recovery fetch

	writes  metrics.Counter // sspd_checkpoints_total
	bytes   metrics.Counter // sspd_checkpoint_bytes_total
	quorums metrics.Counter // quorum-acked checkpoints
	errors  metrics.Counter // failed checkpoint attempts
}

type fetchWait struct {
	expected int
	got      int
}

// replayRing buffers one stream's recent tuples in ascending sequence
// order so recovery can replay the post-checkpoint suffix. Bounded;
// trimmed as checkpoints quorum-ack.
type replayRing struct {
	mu      sync.Mutex
	cap     int
	buf     []stream.Tuple
	trimmed uint64 // highest sequence discarded
}

func (r *replayRing) append(b stream.Batch) {
	r.mu.Lock()
	r.buf = append(r.buf, b...)
	if over := len(r.buf) - r.cap; over > 0 {
		r.trimmed = r.buf[over-1].Seq
		r.buf = append(r.buf[:0:0], r.buf[over:]...)
	}
	r.mu.Unlock()
}

// since returns a copy of the buffered tuples with Seq > seq — of all of
// them when has is false: no cut is not a cut at 0 — plus the ring's
// trim floor: when floor > seq the caller is missing tuples the ring no
// longer holds (a replay gap).
func (r *replayRing) since(seq uint64, has bool) (stream.Batch, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := 0
	if has {
		i = sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Seq > seq })
	}
	if i == len(r.buf) {
		return nil, r.trimmed
	}
	out := make(stream.Batch, len(r.buf)-i)
	copy(out, r.buf[i:])
	return out, r.trimmed
}

func (r *replayRing) trim(seq uint64) {
	r.mu.Lock()
	i := sort.Search(len(r.buf), func(i int) bool { return r.buf[i].Seq > seq })
	if i > 0 {
		if r.buf[i-1].Seq > r.trimmed {
			r.trimmed = r.buf[i-1].Seq
		}
		r.buf = append(r.buf[:0:0], r.buf[i:]...)
	}
	r.mu.Unlock()
}

func (r *replayRing) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// EnableCheckpoints starts the durable-checkpoint plane after Start:
// every stateful query is checkpointed each interval and replicated to
// k peer entities (quorum = k/2+1 acks make it durable). A positive
// interval runs the sweep on the control clock; with a non-positive one
// no sweep runs unless a test drives it (CheckpointTick). Ingest dedup
// is switched on across all entities so recovery replay is idempotent.
func (f *Federation) EnableCheckpoints(interval time.Duration, k int) error {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return fmt.Errorf("core: federation not started")
	}
	if f.ckpt != nil {
		f.mu.Unlock()
		return fmt.Errorf("core: checkpoints already enabled")
	}
	if k <= 0 {
		k = 2
	}
	if k > len(f.entities)-1 {
		k = len(f.entities) - 1
	}
	if k < 1 {
		f.mu.Unlock()
		return fmt.Errorf("core: checkpoint replication needs at least two entities")
	}
	p := &ckptPlane{
		f:          f,
		k:          k,
		quorum:     k/2 + 1,
		replicas:   make(map[string]*checkpoint.Replica),
		seqs:       make(map[string]uint64),
		written:    make(map[string]bool),
		ackedMarks: make(map[string]map[string]uint64),
		streamsOf:  make(map[string][]string),
		rings:      make(map[string]*replayRing),
		fetches:    make(map[string]*fetchWait),
	}
	for _, s := range f.streamNamesLocked() {
		p.rings[s] = &replayRing{cap: defaultReplayRingCap}
	}
	ids := f.entityIDsLocked()
	ents := make([]*entityNode, 0, len(ids))
	for _, id := range ids {
		ents = append(ents, f.entities[id])
	}
	f.ckpt = p
	f.mu.Unlock()

	fail := func(err error) error {
		p.mu.Lock()
		reps := make([]*checkpoint.Replica, 0, len(p.replicas)+1)
		for _, r := range p.replicas {
			reps = append(reps, r)
		}
		if p.portal != nil {
			reps = append(reps, p.portal)
		}
		p.mu.Unlock()
		for _, r := range reps {
			_ = r.Close()
		}
		f.mu.Lock()
		f.ckpt = nil
		f.mu.Unlock()
		return err
	}
	for _, en := range ents {
		if err := p.addReplica(en.id); err != nil {
			return fail(err)
		}
		en.ent.SetIngestDedup(true)
	}
	portal, err := checkpoint.NewReplica(f.transport, ckptID("portal"), nil, checkpoint.ReplicaConfig{
		Reliable: simnet.ReliableConfig{OnGiveUp: f.controlGiveUp},
		Quorum:   p.quorum,
		Log:      f.logger,
		OnQuorum: p.onQuorum,
		OnRecord: func(rec checkpoint.Record, from simnet.NodeID, res checkpoint.PutResult) {
			p.noteFetchResponse(rec.Query)
		},
		OnNone: func(query string, from simnet.NodeID) {
			p.noteFetchResponse(query)
		},
	})
	if err != nil {
		return fail(err)
	}
	p.mu.Lock()
	p.portal = portal
	p.mu.Unlock()
	if interval > 0 {
		f.every(interval, p.tick)
	}
	f.logger.Info("ckpt.enable", "", "durable checkpoints enabled",
		"interval", interval.String(), "replicas", k, "quorum", p.quorum)
	return nil
}

// addReplica registers one entity's checkpoint store node.
func (p *ckptPlane) addReplica(id string) error {
	rep, err := checkpoint.NewReplica(p.f.transport, ckptID(id), nil, checkpoint.ReplicaConfig{
		Reliable: simnet.ReliableConfig{OnGiveUp: p.f.controlGiveUp},
		Quorum:   p.quorum,
		Log:      p.f.logger,
		OnQuorum: p.onQuorum,
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.replicas[id] = rep
	p.mu.Unlock()
	return nil
}

// addNode wires a late-joining entity into the plane (JoinEntity).
func (p *ckptPlane) addNode(id string, ent interface{ SetIngestDedup(bool) }) {
	if err := p.addReplica(id); err != nil {
		p.f.logger.Warn("ckpt.error", id, "checkpoint replica for joining entity failed",
			"err", err.Error())
		return
	}
	ent.SetIngestDedup(true)
}

// killReplica tears down a dead entity's store node (idempotent).
func (p *ckptPlane) killReplica(id string) {
	p.mu.Lock()
	rep := p.replicas[id]
	delete(p.replicas, id)
	p.mu.Unlock()
	if rep != nil {
		_ = rep.Close()
	}
}

// forgetQuery drops a removed query's trim bookkeeping.
func (p *ckptPlane) forgetQuery(id string) {
	p.mu.Lock()
	delete(p.written, id)
	delete(p.ackedMarks, id)
	delete(p.streamsOf, id)
	p.mu.Unlock()
	p.trimRings()
}

// observePublish appends freshly published tuples to the stream's
// replay ring (called from Federation.Publish after dissemination).
func (p *ckptPlane) observePublish(streamName string, b stream.Batch) {
	p.mu.Lock()
	r := p.rings[streamName]
	p.mu.Unlock()
	if r != nil {
		r.append(b)
	}
}

func (f *Federation) ckptRef() *ckptPlane {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ckpt
}

func (p *ckptPlane) tick() {
	f := p.f
	type job struct {
		entity string
		query  string
		spec   engine.QuerySpec
	}
	f.mu.Lock()
	jobs := make([]job, 0, len(f.queries))
	for q, fq := range f.queries {
		if fq.migrating {
			continue
		}
		jobs = append(jobs, job{entity: fq.entity, query: q, spec: fq.spec})
	}
	f.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].query < jobs[j].query })
	for _, j := range jobs {
		p.checkpointQuery(j.entity, j.query, j.spec)
	}
	p.antiEntropy()
}

// checkpointQuery captures and replicates one query's checkpoint. The
// query's migrating flag is held for the duration so a concurrent
// migration and a checkpoint can never interleave their pause/snapshot
// choreography; captureMu makes a migration wait for it instead of
// failing.
func (p *ckptPlane) checkpointQuery(entityID, id string, spec engine.QuerySpec) {
	f := p.f
	f.captureMu.Lock()
	defer f.captureMu.Unlock()
	f.mu.Lock()
	fq, ok := f.queries[id]
	en, okEn := f.entities[entityID]
	if !ok || !okEn || fq.entity != entityID || fq.migrating {
		f.mu.Unlock()
		return
	}
	fq.migrating = true
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		fq.migrating = false
		f.mu.Unlock()
	}()

	c, err := en.ent.CheckpointQuery(id)
	if err != nil {
		p.errors.Inc()
		f.logger.Warn("ckpt.error", entityID, "checkpoint snapshot failed",
			"query", id, "err", err.Error())
		return
	}
	if !c.Stateful {
		// Engine lacks StateSnapshotter; the query recovers stateless
		// from its spec, so there is nothing durable to write.
		return
	}
	rec, err := p.buildRecord(id, entityID, spec, c.State, c.Cut)
	if err != nil {
		p.errors.Inc()
		f.logger.Warn("ckpt.error", entityID, "checkpoint record build failed",
			"query", id, "err", err.Error())
		return
	}
	peers := p.peersFor(entityID)
	rep := p.replicaOf(entityID)
	if rep == nil || len(peers) == 0 {
		p.errors.Inc()
		f.logger.Warn("ckpt.error", entityID, "no checkpoint replicas reachable", "query", id)
		return
	}
	wire, err := rep.Replicate(rec, peers)
	if err != nil {
		p.errors.Inc()
		f.logger.Warn("ckpt.error", entityID, "checkpoint replication failed",
			"query", id, "err", err.Error())
		return
	}
	p.writes.Inc()
	p.bytes.Add(int64(wire))
	p.mu.Lock()
	p.written[id] = true
	p.streamsOf[id] = spec.Streams()
	p.mu.Unlock()
	f.logger.Debug("ckpt.write", entityID, "checkpoint written",
		"query", id, "seq", rec.Seq, "state_bytes", c.Bytes,
		"replicas", len(peers), "wire_bytes", wire)
}

// buildRecord assembles the durable record for one snapshot.
func (p *ckptPlane) buildRecord(id, entityID string, spec engine.QuerySpec,
	st map[string]engine.QueryState, marks map[string]uint64) (checkpoint.Record, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return checkpoint.Record{}, err
	}
	fragIDs := make([]string, 0, len(st))
	for fid := range st {
		fragIDs = append(fragIDs, fid)
	}
	sort.Strings(fragIDs)
	frags := make([]checkpoint.FragmentState, 0, len(fragIDs))
	for _, fid := range fragIDs {
		fs := checkpoint.FragmentState{ID: fid}
		for _, os := range st[fid] {
			fs.Ops = append(fs.Ops, checkpoint.OperatorState{Name: os.Name, Data: os.Data})
		}
		frags = append(frags, fs)
	}
	return checkpoint.Record{
		Query:  id,
		Entity: entityID,
		Seq:    p.nextSeq(id),
		Spec:   specJSON,
		Marks:  marks,
		Frags:  frags,
	}, nil
}

// nextSeq assigns the query's next monotonic checkpoint sequence.
func (p *ckptPlane) nextSeq(id string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seqs[id]++
	return p.seqs[id]
}

// bumpSeq raises the plane's sequence floor to at least seq (recovery
// installs the restored record's sequence so the next checkpoint
// supersedes it everywhere).
func (p *ckptPlane) bumpSeq(id string, seq uint64) {
	p.mu.Lock()
	if p.seqs[id] < seq {
		p.seqs[id] = seq
	}
	p.mu.Unlock()
}

// peersFor picks the K replica entities for a host: the next K entities
// after it on the sorted-ID ring (deterministic, so recovery knows
// where to look even without fetching everyone — though it fetches from
// all survivors for robustness to membership drift).
func (p *ckptPlane) peersFor(host string) []simnet.NodeID {
	f := p.f
	f.mu.Lock()
	ids := f.entityIDsLocked()
	f.mu.Unlock()
	if len(ids) < 2 {
		return nil
	}
	at := sort.SearchStrings(ids, host)
	peers := make([]simnet.NodeID, 0, p.k)
	for i := 1; i < len(ids) && len(peers) < p.k; i++ {
		id := ids[(at+i)%len(ids)]
		if id == host {
			continue
		}
		peers = append(peers, ckptID(id))
	}
	return peers
}

// replicaOf returns an entity's store node.
func (p *ckptPlane) replicaOf(id string) *checkpoint.Replica {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicas[id]
}

// onQuorum is the writer-side durability callback: the record now lives
// on a quorum of replicas, so the upstream rings can trim to its marks.
func (p *ckptPlane) onQuorum(rec checkpoint.Record, acks int) {
	p.quorums.Inc()
	p.mu.Lock()
	marks := make(map[string]uint64, len(rec.Marks))
	for s, seq := range rec.Marks {
		marks[s] = seq
	}
	p.ackedMarks[rec.Query] = marks
	p.mu.Unlock()
	p.f.logger.Info("ckpt.replicate", rec.Entity, "checkpoint quorum-acked",
		"query", rec.Query, "seq", rec.Seq, "acks", acks)
	p.trimRings()
}

// trimRings advances every ring's floor to the minimum quorum-acked
// mark across the queries consuming it. A query with a written but not
// yet quorum-acked checkpoint pins its streams at 0 — never trim what
// an unacked restore might need.
func (p *ckptPlane) trimRings() {
	p.mu.Lock()
	floors := make(map[string]uint64)
	for q := range p.written {
		marks := p.ackedMarks[q]
		for _, s := range p.streamsOf[q] {
			m := marks[s] // 0 when nil or absent: pins the ring
			if cur, ok := floors[s]; !ok || m < cur {
				floors[s] = m
			}
		}
	}
	rings := make(map[string]*replayRing, len(floors))
	for s := range floors {
		rings[s] = p.rings[s]
	}
	p.mu.Unlock()
	for s, floor := range floors {
		if floor > 0 && rings[s] != nil {
			rings[s].trim(floor)
		}
	}
}

// ringSince returns the replay suffix for a stream above seq (the whole
// ring when has is false) and the ring's trim floor.
func (p *ckptPlane) ringSince(streamName string, seq uint64, has bool) (stream.Batch, uint64) {
	p.mu.Lock()
	r := p.rings[streamName]
	p.mu.Unlock()
	if r == nil {
		return nil, 0
	}
	return r.since(seq, has)
}

// antiEntropy exchanges digests within each query's replica group so a
// replica that missed a write (lossy window, late join) catches up to
// the newest sequence.
func (p *ckptPlane) antiEntropy() {
	f := p.f
	f.mu.Lock()
	hosts := make(map[string]string, len(f.queries))
	for q, fq := range f.queries {
		hosts[q] = fq.entity
	}
	f.mu.Unlock()
	// Group: host + its K ring successors, per query; every ordered
	// pair inside a group exchanges one digest entry.
	byPair := make(map[string]map[simnet.NodeID][]string) // sender entity -> peer -> queries
	for q, host := range hosts {
		group := append([]simnet.NodeID{ckptID(host)}, p.peersFor(host)...)
		for _, from := range group {
			fromEntity := string(from[:len(from)-len("/ckpt")])
			for _, to := range group {
				if to == from {
					continue
				}
				if byPair[fromEntity] == nil {
					byPair[fromEntity] = make(map[simnet.NodeID][]string)
				}
				byPair[fromEntity][to] = append(byPair[fromEntity][to], q)
			}
		}
	}
	senders := make([]string, 0, len(byPair))
	for id := range byPair {
		senders = append(senders, id)
	}
	sort.Strings(senders)
	for _, id := range senders {
		rep := p.replicaOf(id)
		if rep == nil {
			continue
		}
		peers := make([]string, 0, len(byPair[id]))
		for to := range byPair[id] {
			peers = append(peers, string(to))
		}
		sort.Strings(peers)
		for _, to := range peers {
			qs := byPair[id][simnet.NodeID(to)]
			sort.Strings(qs)
			rep.AntiEntropy(simnet.NodeID(to), qs)
		}
	}
}

// fetchRecords asks every surviving replica for its newest record of
// each query and waits (bounded) until all respond; the portal store
// then holds the newest surviving sequence per query — the quorum-write
// rule guarantees at least one survivor has the newest quorum-acked
// record when fewer than quorum replicas died.
func (p *ckptPlane) fetchRecords(queries []string, timeout time.Duration) map[string]checkpoint.Record {
	p.mu.Lock()
	targets := make([]simnet.NodeID, 0, len(p.replicas))
	for id := range p.replicas {
		targets = append(targets, ckptID(id))
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	portal := p.portal
	for _, q := range queries {
		p.fetches[q] = &fetchWait{expected: len(targets)}
	}
	p.mu.Unlock()
	out := make(map[string]checkpoint.Record, len(queries))
	if portal == nil || len(targets) == 0 {
		p.clearFetches(queries)
		return out
	}
	for _, q := range queries {
		portal.Fetch(q, targets)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		pending := 0
		for _, q := range queries {
			if fw := p.fetches[q]; fw != nil && fw.got < fw.expected {
				pending++
			}
		}
		p.mu.Unlock()
		if pending == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.clearFetches(queries)
	for _, q := range queries {
		if rec, ok := portal.Store().Get(q); ok {
			out[q] = rec
		}
	}
	return out
}

func (p *ckptPlane) clearFetches(queries []string) {
	p.mu.Lock()
	for _, q := range queries {
		delete(p.fetches, q)
	}
	p.mu.Unlock()
}

// noteFetchResponse credits one replica's answer (record or none)
// toward an in-flight fetch wait.
func (p *ckptPlane) noteFetchResponse(query string) {
	p.mu.Lock()
	if fw := p.fetches[query]; fw != nil {
		fw.got++
	}
	p.mu.Unlock()
}

// close tears the plane down (Federation.Close, after the clock
// stopped).
func (p *ckptPlane) close() {
	p.mu.Lock()
	reps := make([]*checkpoint.Replica, 0, len(p.replicas)+1)
	for _, r := range p.replicas {
		reps = append(reps, r)
	}
	p.replicas = make(map[string]*checkpoint.Replica)
	if p.portal != nil {
		reps = append(reps, p.portal)
		p.portal = nil
	}
	p.mu.Unlock()
	for _, r := range reps {
		_ = r.Close()
	}
}

// CheckpointInfo is the plane's status summary for GET /cluster.
type CheckpointInfo struct {
	Enabled     bool  `json:"enabled"`
	Replicas    int   `json:"replicas"`
	Quorum      int   `json:"quorum"`
	Writes      int64 `json:"writes"`
	QuorumAcked int64 `json:"quorum_acked"`
	WireBytes   int64 `json:"wire_bytes"`
	Errors      int64 `json:"errors"`
	Corrupt     int64 `json:"corrupt"`
	StaleDrops  int64 `json:"stale_drops"`
	RingTuples  int   `json:"ring_tuples"`
	Records     int   `json:"records"`
}

// Checkpoints reports the checkpoint plane's status (zero value when
// the plane is disabled).
func (f *Federation) Checkpoints() CheckpointInfo {
	p := f.ckptRef()
	if p == nil {
		return CheckpointInfo{}
	}
	info := CheckpointInfo{
		Enabled:     true,
		Replicas:    p.k,
		Quorum:      p.quorum,
		Writes:      p.writes.Value(),
		QuorumAcked: p.quorums.Value(),
		WireBytes:   p.bytes.Value(),
		Errors:      p.errors.Value(),
	}
	p.mu.Lock()
	reps := make([]*checkpoint.Replica, 0, len(p.replicas))
	for _, r := range p.replicas {
		reps = append(reps, r)
	}
	rings := make([]*replayRing, 0, len(p.rings))
	for _, r := range p.rings {
		rings = append(rings, r)
	}
	p.mu.Unlock()
	for _, r := range reps {
		info.Corrupt += r.Corrupt.Value()
		info.StaleDrops += r.StaleDrops.Value()
		info.Records += r.Store().Len()
	}
	for _, r := range rings {
		info.RingTuples += r.size()
	}
	return info
}
