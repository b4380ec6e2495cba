// Package cluster turns a set of paruleld processes into one logical
// rule-serving service. Sessions — not requests — are the unit of
// distribution, following the PARULEL/PARADISER framing (PAPERS.md):
// each session's rule execution stays local to one node, where the
// matcher's shared-memory parallelism applies, and the cluster scales by
// spreading *sessions* across nodes.
//
// The package provides the node-agnostic mechanics:
//
//   - a consistent-hash ring with virtual nodes mapping session ids to a
//     deterministic preference order of members (ring.go);
//   - static membership with failure detection by periodic pings
//     (membership.go);
//   - a length-prefixed framed wire protocol spoken on a dedicated peer
//     listener, with two purposes: control traffic, and one session's
//     replication stream (proto.go, server.go, client.go);
//   - session-state streaming — a checkpoint image plus the WAL tail
//     behind it — the one way a session's state reaches another node:
//     a replica is attached with it, and failover and live migration
//     both promote an attached replica (state.go).
//
// The server-side policy (who owns a session, when to proxy, when to
// promote a replica) lives in internal/server, which implements the
// Backend interface; this package never touches the session pool.
package cluster

import (
	"fmt"
	"net"
	"strings"
	"time"
)

// Member is one static cluster member.
type Member struct {
	// Name is the member's unique cluster-wide identity.
	Name string `json:"name"`
	// PeerAddr is the host:port of the member's peer protocol listener.
	PeerAddr string `json:"peer_addr"`
	// PublicURL is the base URL of the member's public HTTP API, used for
	// proxying and 307 redirects.
	PublicURL string `json:"public_url"`
}

// Replication ack policies.
const (
	// ReplSync acknowledges a mutation to the client only after the
	// replica node applied it: a node death loses no acked mutation.
	ReplSync = "sync"
	// ReplOff disables replication; failover serves only what migration
	// moved explicitly.
	ReplOff = "off"
)

// Config tunes a node's view of the cluster. Zero values select the
// documented defaults.
type Config struct {
	// Node is this process's member name; it must appear in Members.
	Node string
	// Members is the full static member list, including this node.
	Members []Member
	// PeerAddr overrides the listen address for the peer protocol;
	// empty uses this node's Members entry.
	PeerAddr string
	// PeerListener, when set, is used instead of listening on PeerAddr
	// (test and embedding hook).
	PeerListener net.Listener
	// Replication selects the WAL streaming ack policy: ReplSync (the
	// default) or ReplOff.
	Replication string
	// Redirect answers requests for remote sessions with 307 redirects
	// instead of proxying them to the owner.
	Redirect bool
	// PingInterval is the peer health-check period. Default 250ms.
	PingInterval time.Duration
	// SuspectAfter is how many consecutive ping failures mark a peer
	// down. Default 3.
	SuspectAfter int
	// IOTimeout bounds every peer-connection read and write. Default 5s.
	IOTimeout time.Duration
	// VNodes is the virtual-node count per member on the hash ring.
	// Default 64.
	VNodes int
}

// WithDefaults returns cfg with zero values resolved.
func (c Config) WithDefaults() Config {
	if c.Replication == "" {
		c.Replication = ReplSync
	}
	if c.PingInterval <= 0 {
		c.PingInterval = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 5 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	return c
}

// Validate checks the member list against this node's identity.
func (c Config) Validate() error {
	if c.Node == "" {
		return fmt.Errorf("cluster: node name is required")
	}
	if len(c.Members) < 2 {
		return fmt.Errorf("cluster: need at least 2 members, got %d", len(c.Members))
	}
	seen := make(map[string]bool, len(c.Members))
	self := false
	for _, m := range c.Members {
		switch {
		case m.Name == "":
			return fmt.Errorf("cluster: member with empty name")
		case m.PeerAddr == "":
			return fmt.Errorf("cluster: member %s has no peer address", m.Name)
		case m.PublicURL == "":
			return fmt.Errorf("cluster: member %s has no public URL", m.Name)
		case seen[m.Name]:
			return fmt.Errorf("cluster: duplicate member %s", m.Name)
		}
		seen[m.Name] = true
		if m.Name == c.Node {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("cluster: node %q is not in the member list", c.Node)
	}
	switch c.Replication {
	case ReplSync, ReplOff:
	default:
		return fmt.Errorf("cluster: unknown replication policy %q (want sync or off)", c.Replication)
	}
	return nil
}

// ParseMembers parses a member-list flag of the form
// "name=peerHost:peerPort=publicURL,name=…". The public URL may itself
// contain '=' only in its query, which member specs do not use, so the
// split is on the first two '=' of each comma-separated entry.
func ParseMembers(spec string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, "=", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("cluster: bad member spec %q (want name=peerAddr=publicURL)", part)
		}
		out = append(out, Member{
			Name:      fields[0],
			PeerAddr:  fields[1],
			PublicURL: strings.TrimSuffix(fields[2], "/"),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty member list")
	}
	return out, nil
}
