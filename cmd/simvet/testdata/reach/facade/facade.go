// Package facade is public API: its exported names are roots.
package facade

import "fix/lib"

// API is never called from a main, but it is exported here.
func API() string { return helper() }

func helper() string { return "ok" }

func helperDead() {}

// Handle is an exported type; its exported methods are roots.
type Handle struct{}

// Close is public API.
func (Handle) Close() {}

// Alias re-exports a lib type: its exported methods are public API.
type Alias = lib.Exposed

// Make hands out a lib type: its exported methods are public API.
func Make() *lib.Made { return &lib.Made{} }
