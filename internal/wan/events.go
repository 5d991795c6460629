package wan

import (
	"fmt"
	"sync"
)

// EventLog is an ordered, concurrency-safe record of control-plane events:
// RPC outcomes, retries, give-ups, fallbacks, and pipeline stage entries.
// Durations and other wall-clock values are deliberately excluded, so two
// runs with the same workload and the same injected-fault seed produce
// byte-identical logs — the chaos determinism tests diff them directly.
// The zero value is an empty log. All methods are nil-safe; a nil log
// records nothing.
type EventLog struct {
	mu     sync.Mutex
	events []string
}

// Addf appends one formatted event.
func (l *EventLog) Addf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

// Events returns a copy of the recorded events in order.
func (l *EventLog) Events() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}
