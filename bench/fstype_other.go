//go:build !linux

package main

// fsType is only implemented on Linux.
func fsType(string) string { return "unknown" }
