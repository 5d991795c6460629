// Package fixture is the root package of the guard's fixture: it plants the
// cases that hide outside internal/.
package fixture

import "fixture/internal/a"

// Config is a root option struct: Width is set only in DefaultConfig and
// forwarded into a.Options, so a.Options.Width has a program writer.
type Config struct{ Width int }

// DefaultConfig returns the defaults.
func DefaultConfig() Config { return Config{Width: 8} }

// New forwards cfg into a's options.
func New(cfg Config) a.Options {
	o := a.DefaultOptions()
	o.Width = cfg.Width
	return o
}

// Unused is exported, and no program calls it.
func Unused() int { return 1 }
