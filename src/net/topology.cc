#include "net/topology.hh"

#include <stdexcept>

#include "check/check.hh"

namespace absim::net {

namespace {

bool
isPowerOfTwo(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

std::uint32_t
log2u(std::uint32_t x)
{
    std::uint32_t r = 0;
    while ((1u << r) < x)
        ++r;
    return r;
}

} // namespace

std::string
toString(TopologyKind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    return i < kTopologyNames.size() ? std::string(kTopologyNames[i]) : "?";
}

std::unique_ptr<Topology>
Topology::make(TopologyKind kind, NodeId p)
{
    if (!isPowerOfTwo(p))
        throw std::invalid_argument("node count must be a power of two");
    switch (kind) {
      case TopologyKind::Full:
        return std::make_unique<FullTopology>(p);
      case TopologyKind::Hypercube:
        return std::make_unique<HypercubeTopology>(p);
      case TopologyKind::Mesh2D:
        return std::make_unique<MeshTopology>(p);
    }
    throw std::invalid_argument("unknown topology kind");
}

// ---------------------------------------------------------------- Full

FullTopology::FullTopology(NodeId p) : Topology(p) {}

std::uint32_t
FullTopology::linkCount() const
{
    // One id per ordered pair including the (unused) diagonal; wasting the
    // diagonal keeps linkFor trivial.
    return nodes_ * nodes_;
}

void
FullTopology::route(NodeId src, NodeId dst, std::vector<LinkId> &out) const
{
    ABSIM_DCHECK(src != dst, "route from node " << src << " to itself");
    out.push_back(src * nodes_ + dst);
}

std::uint32_t
FullTopology::hops(NodeId src, NodeId dst) const
{
    return src == dst ? 0 : 1;
}

std::pair<NodeId, NodeId>
FullTopology::linkEndpoints(LinkId link) const
{
    ABSIM_DCHECK(link < linkCount(),
                 "link id " << link << " out of range");
    return {link / nodes_, link % nodes_};
}

std::uint32_t
FullTopology::bisectionLinks() const
{
    // Each of the p/2 nodes on one side has a link in each direction to
    // each of the p/2 nodes on the other side.
    return 2 * (nodes_ / 2) * (nodes_ / 2);
}

// ----------------------------------------------------------- Hypercube

HypercubeTopology::HypercubeTopology(NodeId p)
    : Topology(p), dims_(log2u(p))
{
}

LinkId
HypercubeTopology::linkFor(NodeId from, std::uint32_t dim) const
{
    return from * dims_ + dim;
}

std::uint32_t
HypercubeTopology::linkCount() const
{
    return nodes_ * dims_;
}

void
HypercubeTopology::route(NodeId src, NodeId dst,
                         std::vector<LinkId> &out) const
{
    ABSIM_DCHECK(src != dst, "route from node " << src << " to itself");
    // E-cube: correct differing address bits from lowest to highest.
    NodeId cur = src;
    for (std::uint32_t dim = 0; dim < dims_; ++dim) {
        if (((cur ^ dst) >> dim) & 1u) {
            out.push_back(linkFor(cur, dim));
            cur ^= (1u << dim);
        }
    }
    ABSIM_DCHECK(cur == dst, "e-cube routing stopped at node "
                                 << cur << " instead of " << dst);
}

std::uint32_t
HypercubeTopology::hops(NodeId src, NodeId dst) const
{
    return static_cast<std::uint32_t>(__builtin_popcount(src ^ dst));
}

std::pair<NodeId, NodeId>
HypercubeTopology::linkEndpoints(LinkId link) const
{
    ABSIM_DCHECK(link < linkCount(),
                 "link id " << link << " out of range");
    const NodeId from = link / dims_;
    const std::uint32_t dim = link % dims_;
    return {from, from ^ (1u << dim)};
}

std::uint32_t
HypercubeTopology::bisectionLinks() const
{
    // Cutting the highest dimension severs p/2 edges, each with a link in
    // both directions.
    return nodes_;
}

// ---------------------------------------------------------------- Mesh

void
MeshTopology::shapeFor(NodeId p, std::uint32_t &rows, std::uint32_t &cols)
{
    std::uint32_t d = log2u(p);
    if (d % 2 == 0) {
        rows = cols = 1u << (d / 2);
    } else {
        rows = 1u << (d / 2);
        cols = 2 * rows;
    }
}

MeshTopology::MeshTopology(NodeId p) : Topology(p)
{
    shapeFor(p, rows_, cols_);
    ABSIM_CHECK(rows_ * cols_ == p, rows_ << "x" << cols_
                                          << " mesh cannot hold " << p
                                          << " nodes");
}

LinkId
MeshTopology::linkFor(NodeId from, std::uint32_t dir) const
{
    return from * 4 + dir;
}

std::uint32_t
MeshTopology::linkCount() const
{
    return nodes_ * 4;
}

void
MeshTopology::route(NodeId src, NodeId dst, std::vector<LinkId> &out) const
{
    ABSIM_DCHECK(src != dst, "route from node " << src << " to itself");
    std::uint32_t r = src / cols_, c = src % cols_;
    const std::uint32_t dr = dst / cols_, dc = dst % cols_;
    // XY routing: fix the column (X) first, then the row (Y).
    while (c != dc) {
        const std::uint32_t dir = (dc > c) ? 0u : 1u; // east : west
        out.push_back(linkFor(r * cols_ + c, dir));
        c += (dc > c) ? 1 : -1;
    }
    while (r != dr) {
        const std::uint32_t dir = (dr > r) ? 2u : 3u; // south : north
        out.push_back(linkFor(r * cols_ + c, dir));
        r += (dr > r) ? 1 : -1;
    }
}

std::uint32_t
MeshTopology::hops(NodeId src, NodeId dst) const
{
    const std::uint32_t r = src / cols_, c = src % cols_;
    const std::uint32_t dr = dst / cols_, dc = dst % cols_;
    const std::uint32_t dx = (c > dc) ? c - dc : dc - c;
    const std::uint32_t dy = (r > dr) ? r - dr : dr - r;
    return dx + dy;
}

std::pair<NodeId, NodeId>
MeshTopology::linkEndpoints(LinkId link) const
{
    ABSIM_DCHECK(link < linkCount(),
                 "link id " << link << " out of range");
    const NodeId from = link / 4;
    const std::uint32_t dir = link % 4;
    const std::uint32_t r = from / cols_, c = from % cols_;
    switch (dir) {
      case 0: // east
        ABSIM_DCHECK(c + 1 < cols_, "east link off the mesh edge");
        return {from, from + 1};
      case 1: // west
        ABSIM_DCHECK(c > 0, "west link off the mesh edge");
        return {from, from - 1};
      case 2: // south
        ABSIM_DCHECK(r + 1 < rows_, "south link off the mesh edge");
        return {from, from + cols_};
      default: // north
        ABSIM_DCHECK(r > 0, "north link off the mesh edge");
        return {from, from - cols_};
    }
}

std::uint32_t
MeshTopology::bisectionLinks() const
{
    // Cut down the middle between the two central columns: one edge per
    // row, two directions each.  (For a single-column degenerate mesh the
    // cut is between rows instead.)
    if (cols_ >= 2)
        return 2 * rows_;
    return 2 * cols_;
}

} // namespace absim::net
