// The dispatcher's write-ahead log: one NDJSON record per public job
// transition. Accepted records carry the submit body as the client sent it
// (compacted onto one line if it was not), spliced into the record rather
// than re-encoded, so a dead node's jobs can be re-dispatched to a
// surviving peer (and a restarted dispatcher can rebuild its whole table)
// from the log alone.
// The file mechanics live in internal/journal; this file is the record
// schema. The durability policy is the service's: Submit flushes the
// accepted record before the ack (concurrent submits share one fsync),
// and dispatched and terminal records ride the next group commit.
package dispatch

import (
	"encoding/json"
	"time"

	"eblow/internal/journal"
)

// WAL record ops, in lifecycle order. A "dispatched" record is advisory —
// it lets a restarted dispatcher re-attach to a backend job instead of
// re-submitting it — while "accepted" and "terminal" carry the durability
// contract: accepted-but-not-terminal jobs are exactly the failover set.
const (
	walOpAccepted   = "accepted"
	walOpDispatched = "dispatched"
	walOpTerminal   = "terminal"
)

// walRecord is one NDJSON line of the dispatcher log.
type walRecord struct {
	Op   string    `json:"op"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	// Accepted fields: the submit body plus the derived identity the
	// dispatcher needs without re-decoding the instance. Submit splices the
	// body in with journal.EncodeSpliced.
	Body       json.RawMessage `json:"body,omitempty"`
	RoutingKey string          `json:"routingKey,omitempty"`
	Name       string          `json:"name,omitempty"`
	Kind       string          `json:"kind,omitempty"`
	Solver     string          `json:"solver,omitempty"`
	Label      string          `json:"label,omitempty"`

	// Dispatch assignment.
	Node      string `json:"node,omitempty"`
	BackendID string `json:"backendId,omitempty"`

	// Terminal outcome.
	State  string `json:"state,omitempty"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
}

// valid reports whether a decoded line is a usable record.
func (r *walRecord) valid() bool { return r.Op != "" && r.Job != "" }

// WAL is the dispatcher's durable job log. Open it with OpenWAL and hand
// it to Config.WAL; the Dispatcher owns it from then on.
type WAL = journal.Log[walRecord]

// OpenWAL opens (creating if needed) the dispatcher log at path and parses
// its existing records for replay. Unparseable lines — e.g. a torn tail
// after kill -9 mid-append — are counted in Stats and skipped. The log is
// never compacted: the dispatcher keeps every job, so a snapshot would
// only drop dispatched records.
func OpenWAL(path string) (*WAL, error) {
	return journal.Open(path, 0, (*walRecord).valid)
}
