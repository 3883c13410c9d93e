package coordinator

// Stats federation over the coordinator tree (DESIGN.md §9). Each
// entity runs a StatsNode: a small soft-state aggregator registered at
// "<entity>/stats" on the shared transport. On every Tick (the owner
// clocks it: core's StatsTick, once per digest period) the node folds
// its local registry into an EntityStats row, merges it into its table,
// and pushes the whole table one hop up the tree (Tree.StatsParent).
// Interior coordinators merge child digests row-by-row (newest sequence
// number wins), so within height(T) digest periods the root's table
// covers the cluster. Rows are soft state: they are re-pushed every
// period and expire by age, so tree reorganizations and crashed entities
// converge without explicit retraction messages. Digests ride the same
// transport as dissemination control traffic — nothing touches the
// per-tuple hot path.

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"sspd/internal/engine"
	"sspd/internal/latency"
	"sspd/internal/metrics"
	"sspd/internal/simnet"
)

// KindStats is the transport message kind digests travel under.
const KindStats = "coord.stats"

// StatsSuffix turns an entity ID into its stats endpoint.
const StatsSuffix = "/stats"

// StatsEndpoint returns the transport endpoint of a member's stats node.
func StatsEndpoint(id MemberID) simnet.NodeID {
	return simnet.NodeID(string(id) + StatsSuffix)
}

// SparkLen bounds the PR_max sparkline carried in each row: the last
// SparkLen fold samples, oldest first. Carried in the digest (rather
// than accumulated at the root) so the history survives root changes.
const SparkLen = 32

// StreamStats is one entity's dissemination traffic on one stream.
type StreamStats struct {
	Bytes       int64   `json:"bytes"`
	Messages    int64   `json:"messages"`
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// EntityStats is one entity's folded registry: the per-entity row of the
// cluster stats table. Seq increases with every local fold; merges keep
// the row with the higher Seq (ties broken by UnixNano), so stale copies
// lingering at former ancestors can never overwrite fresh ones.
type EntityStats struct {
	Entity   string `json:"entity"`
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`

	Load       float64            `json:"load"`
	Queries    int                `json:"queries"`
	PRMax      float64            `json:"pr_max"`
	PRSpark    []float64          `json:"pr_spark,omitempty"`
	QueryLoads map[string]float64 `json:"query_loads,omitempty"`
	// QueryDrops counts tuples dropped per query by the hosting
	// engines' full shard rings — the per-query drop
	// attribution the `query`-labeled cluster metric is built from.
	// Queries whose engines never drop (e.g. MiniEngine) are absent.
	QueryDrops map[string]int64       `json:"query_drops,omitempty"`
	Streams    map[string]StreamStats `json:"streams,omitempty"`

	// Latency carries the entity's span-derived attribution snapshot
	// (per-stage and end-to-end log-bucket histograms plus per-query
	// measured PR). The histograms merge bucket-wise at the root —
	// exactly, unlike reservoir quantiles — so the root digest answers
	// cluster-wide percentiles per stage. Nil when the latency plane is
	// not enabled.
	Latency *latency.Attribution `json:"latency,omitempty"`

	// Engine carries the entity's shard-engine introspection snapshot
	// (DESIGN.md §14): per-shard ring occupancy, drops, kernel split.
	// Federated like Latency — newest-seq-wins, whole row — so the root
	// digest answers cluster-wide shard heatmaps. Nil when the entity
	// runs no introspectable engine or the plane is not enabled.
	Engine *engine.EngineStats `json:"engine,omitempty"`
	// Dropped is the entity's engine-lifetime dropped-tuple total across
	// all processors — unlike QueryDrops it keeps counting for queries
	// that were unregistered or migrated away.
	Dropped int64 `json:"dropped,omitempty"`
	// DropSpark is the recent drops-per-second history (last SparkLen
	// fold deltas, oldest first), the ops-view drop sparkline.
	DropSpark []float64 `json:"drop_spark,omitempty"`

	SendErrors   int64 `json:"send_errors"`
	DecodeErrors int64 `json:"decode_errors"`
}

// Age returns how long ago the row was folded.
func (e EntityStats) Age(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, e.UnixNano))
}

// newer reports whether row a supersedes row b for the same entity.
func newer(a, b EntityStats) bool {
	if a.Seq != b.Seq {
		return a.Seq > b.Seq
	}
	return a.UnixNano > b.UnixNano
}

// Digest is the wire unit of stats federation: the sender's whole merged
// table, keyed by entity ID.
type Digest struct {
	From string                 `json:"from"`
	Rows map[string]EntityStats `json:"rows"`
}

// EncodeDigest marshals a digest for transport.
func EncodeDigest(d Digest) ([]byte, error) { return json.Marshal(d) }

// DecodeDigest unmarshals a digest received from a child.
func DecodeDigest(payload []byte) (Digest, error) {
	var d Digest
	if err := json.Unmarshal(payload, &d); err != nil {
		return Digest{}, fmt.Errorf("coordinator: bad stats digest: %w", err)
	}
	return d, nil
}

// MergeRows folds src into dst row-by-row, newest Seq winning. dst must
// be non-nil; it is returned for convenience.
func MergeRows(dst, src map[string]EntityStats) map[string]EntityStats {
	for id, row := range src {
		if cur, ok := dst[id]; !ok || newer(row, cur) {
			dst[id] = row
		}
	}
	return dst
}

// StatsNode is one member's participant in the stats federation.
type StatsNode struct {
	// Fold produces this member's own row; Seq/UnixNano are stamped by
	// Tick. Called once per tick, off the tuple path.
	Fold func() EntityStats
	// Parent resolves the current stats parent's endpoint; ok=false at
	// the overlay root. Re-resolved every tick so pushes follow tree
	// repairs automatically.
	Parent func() (simnet.NodeID, bool)
	// MaxAge expires foreign rows not refreshed within it (0 keeps rows
	// forever). Three digest periods is the conventional setting.
	MaxAge time.Duration

	// Merges and Pushes count digest merges received and digests pushed
	// upward — the bench's digest-merge denominator.
	Merges metrics.Counter
	Pushes metrics.Counter

	id       MemberID
	endpoint simnet.NodeID
	net      simnet.Transport

	mu   sync.Mutex
	rows map[string]EntityStats
	seq  uint64
}

// NewStatsNode registers a stats endpoint for id on the transport. The
// caller sets Fold/Parent before the first Tick. Close deregisters.
func NewStatsNode(id MemberID, net simnet.Transport) (*StatsNode, error) {
	n := &StatsNode{
		id:       id,
		endpoint: StatsEndpoint(id),
		net:      net,
		rows:     make(map[string]EntityStats),
	}
	if err := net.Register(n.endpoint, n.handle); err != nil {
		return nil, err
	}
	return n, nil
}

// handle merges a digest pushed by a child into the local table.
func (n *StatsNode) handle(m simnet.Message) {
	if m.Kind != KindStats {
		return
	}
	d, err := DecodeDigest(m.Payload)
	if err != nil {
		return
	}
	n.mu.Lock()
	MergeRows(n.rows, d.Rows)
	n.mu.Unlock()
	n.Merges.Inc()
}

// Tick runs one federation period: fold the local row, expire stale
// foreign rows, and push the merged table to the current parent (if
// any). The Fold and Parent closures run outside the node's lock, so
// they may take the federation's own locks freely.
func (n *StatsNode) Tick() {
	var row EntityStats
	if n.Fold != nil {
		row = n.Fold()
	}
	row.Entity = string(n.id)
	now := time.Now()
	row.UnixNano = now.UnixNano()
	var parent simnet.NodeID
	var hasParent bool
	if n.Parent != nil {
		parent, hasParent = n.Parent()
	}

	n.mu.Lock()
	n.seq++
	row.Seq = n.seq
	n.rows[row.Entity] = row
	if n.MaxAge > 0 {
		for id, r := range n.rows {
			if id != row.Entity && r.Age(now) > n.MaxAge {
				delete(n.rows, id)
			}
		}
	}
	var payload []byte
	if hasParent {
		payload, _ = EncodeDigest(Digest{From: string(n.id), Rows: n.rows})
	}
	n.mu.Unlock()

	if hasParent && payload != nil {
		if err := n.net.Send(n.endpoint, parent, KindStats, payload); err == nil {
			n.Pushes.Inc()
		}
	}
}

// Snapshot returns a copy of the node's merged table. At the overlay
// root this is the cluster view.
func (n *StatsNode) Snapshot() map[string]EntityStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]EntityStats, len(n.rows))
	for id, r := range n.rows {
		out[id] = r
	}
	return out
}

// Close deregisters the endpoint.
func (n *StatsNode) Close() error {
	return n.net.Deregister(n.endpoint)
}
