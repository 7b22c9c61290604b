//go:build !race

package walk

// raceEnabled reports a race-detector build, where sync.Pool drops puts
// at random and pooled-path allocation pins cannot hold.
const raceEnabled = false
