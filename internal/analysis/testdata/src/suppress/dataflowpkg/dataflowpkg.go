// Package dataflowpkg is a suppression fixture for the dataflow rules:
// goroutinelife and lockguard interact with lint-ignore the same way the
// expression rules do — one rule, one line, audited reason.
package dataflowpkg

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// SuppressedRace reads a guarded field unlocked under an audited
// ignore: silenced.
func SuppressedRace(c *counter) int {
	//echoimage:lint-ignore lockguard fixture: deliberate unlocked read under audit
	return c.n
}

// WrongRuleIgnore carries a goroutinelife ignore on a lockguard
// violation: the lockguard finding survives.
func WrongRuleIgnore(c *counter) int {
	//echoimage:lint-ignore goroutinelife fixture: wrong rule for this line
	return c.n
}

// OnePerLine spawns two unstoppable goroutines with one ignore: the
// first is silenced, the second survives.
func OnePerLine() {
	//echoimage:lint-ignore goroutinelife fixture: first spawn accepted
	go func() { println(1) }()
	go func() { println(2) }()
}

// UnknownRule misspells the rule name: the ignore itself is a finding
// and the lockguard violation below it survives.
func UnknownRule(c *counter) int {
	//echoimage:lint-ignore lockgard fixture: misspelled rule name
	return c.n
}
