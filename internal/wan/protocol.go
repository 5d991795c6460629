// Package wan emulates the production control plane of §5's testbed: switch
// agents speaking a JSON-over-TCP protocol to a centralized controller that
// installs tunnels (serially, matching the production behaviour behind
// Fig 11b's linear update time) and pushes rate-adaptation tables. Combined
// with the optical.TestbedScript replay it reproduces the §5 scenario end to
// end and measures the Fig 11a latency breakdown.
package wan

import (
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// MsgType enumerates protocol requests.
type MsgType string

// Protocol message types.
const (
	MsgInstallTunnel MsgType = "install_tunnel"
	MsgRemoveTunnel  MsgType = "remove_tunnel"
	MsgUpdateRates   MsgType = "update_rates"
	MsgPing          MsgType = "ping"
	// MsgReplRecord carries one CRC-framed journal record from a leader to a
	// cross-site standby (Request.Frame); MsgReplSnapshot carries the newest
	// record for a re-sync, which the standby appends even though it skips
	// sequences. Both are answered with Response.Ack (the
	// standby's contiguous applied prefix) and possibly Response.Resync.
	MsgReplRecord   MsgType = "repl_record"
	MsgReplSnapshot MsgType = "repl_snapshot"
)

// Request is a controller -> switch message. Gen implements the
// controller-incarnation fence: it is the sender's durable generation
// (persist.Store.Generation), zero — and absent from the wire, keeping the
// encoding byte-identical to the unfenced protocol — when the controller
// runs without a state store. No request carries a sequence number, because
// a duplicate delivery is harmless: an install overwrites by tunnel ID, a
// remove is idempotent, a rate push names its table (Tag, Base), and a
// connection has one request in flight.
// Leader names the sending controller incarnation (site id); it breaks
// ties between two claimants that fenced to the same generation from
// different sites, where no shared lock can arbitrate. Frame is a
// replication frame (repl messages only).
//
// Tag and Base make update_rates a delta push. Tag is an order-independent
// 64-bit content digest of the controller's full table (never 0); Base is
// the tag the controller believes the agent holds, and Rates then carries
// only the entries added or changed since that table (none for an
// unchanged table: a heartbeat). Base 0 is a full push. A digest rather
// than a counter, so two controller incarnations never mistake each
// other's tables for their own. The agent merges a delta only onto the
// table it was cut against; see SwitchAgent for the rules.
//
// Every extension field is omitted from the wire when unset, so install,
// remove, ping and repl messages encode byte-identically to the legacy
// protocol.
type Request struct {
	Type     MsgType            `json:"type"`
	TunnelID int                `json:"tunnel_id,omitempty"`
	Path     []int              `json:"path,omitempty"` // link IDs
	Rates    map[string]float64 `json:"rates,omitempty"`
	Gen      uint64             `json:"gen,omitempty"`
	Leader   string             `json:"leader,omitempty"`
	Frame    []byte             `json:"frame,omitempty"`
	Base     uint64             `json:"base,omitempty"`
	Tag      uint64             `json:"tag,omitempty"`
}

// Response is a switch -> controller message. Stale marks a fence
// rejection: the request carried a generation older than one the agent has
// already seen, i.e. it came from a dead controller incarnation; Gen then
// reports the generation the agent is fenced to.
// Ack and Resync answer replication messages: Ack is the standby's
// contiguous applied sequence prefix, and Resync asks the shipper to fall
// back to a re-sync (the standby detected a gap or a corrupt
// frame). An agent answers a rate delta it cannot place with Resync too:
// it holds neither the delta's Base nor its Tag, and wants the full table.
// Both are omitted from the wire when unset.
type Response struct {
	OK     bool   `json:"ok"`
	Err    string `json:"err,omitempty"`
	Stale  bool   `json:"stale,omitempty"`
	Gen    uint64 `json:"gen,omitempty"`
	Ack    uint64 `json:"ack,omitempty"`
	Resync bool   `json:"resync,omitempty"`
}

// conn wraps a TCP connection with JSON framing (one JSON value per line,
// via the stdlib stream encoder/decoder).
type conn struct {
	raw net.Conn
	enc *json.Encoder
	dec *json.Decoder
}

func newConn(c net.Conn) *conn {
	return &conn{raw: c, enc: json.NewEncoder(c), dec: json.NewDecoder(c)}
}

func (c *conn) writeRequest(r *Request) error   { return c.enc.Encode(r) }
func (c *conn) readRequest(r *Request) error    { return c.dec.Decode(r) }
func (c *conn) writeResponse(r *Response) error { return c.enc.Encode(r) }
func (c *conn) readResponse(r *Response) error  { return c.dec.Decode(r) }
func (c *conn) close() error                    { return c.raw.Close() }

// roundTrip sends a request and waits for its response with a deadline.
func (c *conn) roundTrip(req *Request, timeout time.Duration) (*Response, error) {
	if timeout > 0 {
		if err := c.raw.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer c.raw.SetDeadline(time.Time{})
	}
	if err := c.writeRequest(req); err != nil {
		return nil, fmt.Errorf("wan: send %s: %w", req.Type, err)
	}
	var resp Response
	if err := c.readResponse(&resp); err != nil {
		return nil, fmt.Errorf("wan: recv %s: %w", req.Type, err)
	}
	if !resp.OK {
		return &resp, fmt.Errorf("wan: switch rejected %s: %s", req.Type, resp.Err)
	}
	return &resp, nil
}
