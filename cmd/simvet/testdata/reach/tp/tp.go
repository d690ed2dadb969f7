// Package tp is a test-only package main imports anyway.
//
//simvet:testonly fixture shared by tests
package tp

// F is called from main.
func F() {}
