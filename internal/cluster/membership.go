package cluster

import (
	"sort"
	"sync"
	"time"
)

// Membership tracks which static members are currently reachable. Every
// peer is pinged on a fixed interval; SuspectAfter consecutive failures
// mark it down, one success marks it up again. Data-path failures
// (refused proxy or replication connections) feed in via ReportFailure
// so a dead node is routed around before the ping loop notices.
//
// The local node is always up. Liveness is advisory: routing filters the
// ring's deterministic preference order through it, so a wrong verdict
// costs a proxy hop or a 503, never a wrong owner forever.
type Membership struct {
	self    string
	suspect int

	mu    sync.Mutex
	state map[string]*peerState

	stop chan struct{}
	done chan struct{}
}

type peerState struct {
	member Member
	up     bool
	fails  int
	since  time.Time // when the current up/down verdict was reached
}

// PeerStatus is one member's liveness for status endpoints.
type PeerStatus struct {
	Name      string `json:"name"`
	PeerAddr  string `json:"peer_addr"`
	PublicURL string `json:"public_url"`
	Self      bool   `json:"self"`
	Up        bool   `json:"up"`
	SinceMS   int64  `json:"since_ms"` // how long the verdict has held
}

// NewMembership builds the tracker; every member starts up so a booting
// cluster does not route around peers that have not been pinged yet.
func NewMembership(cfg Config) *Membership {
	m := &Membership{
		self:    cfg.Node,
		suspect: cfg.SuspectAfter,
		state:   make(map[string]*peerState, len(cfg.Members)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	now := time.Now()
	for _, mem := range cfg.Members {
		m.state[mem.Name] = &peerState{member: mem, up: true, since: now}
	}
	return m
}

// Start launches the ping loop. ping performs one health check against a
// peer and reports its result; it must be safe for concurrent use.
func (m *Membership) Start(interval time.Duration, ping func(Member) error) {
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				var wg sync.WaitGroup
				for _, mem := range m.peers() {
					wg.Add(1)
					go func(mem Member) {
						defer wg.Done()
						if err := ping(mem); err != nil {
							m.ReportFailure(mem.Name)
						} else {
							m.ReportSuccess(mem.Name)
						}
					}(mem)
				}
				wg.Wait()
			}
		}
	}()
}

// Stop ends the ping loop.
func (m *Membership) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

func (m *Membership) peers() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.state)-1)
	for name, st := range m.state {
		if name != m.self {
			out = append(out, st.member)
		}
	}
	return out
}

// ReportFailure counts one failed interaction with a peer; SuspectAfter
// of them in a row mark it down.
func (m *Membership) ReportFailure(name string) {
	if name == m.self {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[name]
	if !ok {
		return
	}
	st.fails++
	if st.up && st.fails >= m.suspect {
		st.up = false
		st.since = time.Now()
	}
}

// ReportSuccess counts one successful interaction with a peer, clearing
// its failure streak and marking it up. An incoming ping is evidence too.
func (m *Membership) ReportSuccess(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[name]
	if !ok {
		return
	}
	st.fails = 0
	if !st.up {
		st.up = true
		st.since = time.Now()
	}
}

// Up reports whether the member is currently considered reachable.
func (m *Membership) Up(name string) bool {
	if name == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[name]
	return ok && st.up
}

// FirstUp returns the first member of the preference order that is up,
// or "" when every candidate is down.
func (m *Membership) FirstUp(order []string) string {
	for _, name := range order {
		if m.Up(name) {
			return name
		}
	}
	return ""
}

// UpCount returns how many members (including self) are up.
func (m *Membership) UpCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for name, st := range m.state {
		if name == m.self || st.up {
			n++
		}
	}
	return n
}

// Snapshot renders every member's status, sorted by name.
func (m *Membership) Snapshot() []PeerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	out := make([]PeerStatus, 0, len(m.state))
	for name, st := range m.state {
		out = append(out, PeerStatus{
			Name:      name,
			PeerAddr:  st.member.PeerAddr,
			PublicURL: st.member.PublicURL,
			Self:      name == m.self,
			Up:        name == m.self || st.up,
			SinceMS:   now.Sub(st.since).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
