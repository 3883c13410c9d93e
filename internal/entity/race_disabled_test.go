//go:build !race

package entity

const raceEnabled = false
