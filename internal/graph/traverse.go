package graph

// BFS runs a breadth-first search from src and returns the distance (in
// hops) from src to every node; unreachable nodes get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	g.bfsInto(src, dist, make([]int32, 0, g.N()))
	return dist
}

// bfsInto is BFS writing into dist, with queue (capacity N) as scratch,
// so that repeated searches allocate nothing.
func (g *Graph) bfsInto(src int, dist []int, queue []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return false
	}
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from src, or -1 if some
// node is unreachable.
func (g *Graph) Eccentricity(src int) int { return maxDistance(g.BFS(src)) }

// maxDistance returns the largest of a BFS's distances, or -1 if one is.
func maxDistance(dist []int) int {
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter by running a BFS from every node,
// all into one distance slice and one queue. It returns -1 for
// disconnected graphs. Cost is O(n·m); the experiment harness only calls
// it at simulable sizes.
func (g *Graph) Diameter() int {
	dist, queue := make([]int, g.N()), make([]int32, 0, g.N())
	diam := 0
	for v := 0; v < g.N(); v++ {
		g.bfsInto(v, dist, queue)
		ecc := maxDistance(dist)
		if ecc < 0 {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterLowerBound returns a cheap lower bound on the diameter via a
// double-sweep BFS (exact on trees, usually tight in practice). It returns
// -1 for disconnected graphs.
func (g *Graph) DiameterLowerBound() int {
	if g.N() == 0 {
		return -1
	}
	d0 := g.BFS(0)
	far, farD := 0, 0
	for v, d := range d0 {
		if d < 0 {
			return -1
		}
		if d > farD {
			far, farD = v, d
		}
	}
	best := 0
	for _, d := range g.BFS(far) {
		if d > best {
			best = d
		}
	}
	return best
}

// ComponentCount returns the number of connected components.
func (g *Graph) ComponentCount() int {
	visited := make([]bool, g.N())
	count := 0
	for s := 0; s < g.N(); s++ {
		if visited[s] {
			continue
		}
		count++
		stack := []int32{int32(s)}
		visited[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.adj[u] {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return count
}
