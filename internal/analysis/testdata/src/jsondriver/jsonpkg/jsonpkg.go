// Package jsonpkg is a driver fixture for -json and -rules: one live
// goroutinelife violation, one suppressed lockguard violation, and the
// package itself is undeclared in the layering DAG (a third, live rule).
package jsonpkg

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// ReadSuppressed reads a guarded field unlocked on purpose; the audited
// ignore keeps the finding visible to -json while keeping the exit code
// clean.
func ReadSuppressed(c *counter) int {
	return c.n //echoimage:lint-ignore lockguard fixture: suppressed finding stays visible in -json
}

// Spawn leaks an unstoppable goroutine: the live finding.
func Spawn() {
	go func() {
		for {
		}
	}()
}
