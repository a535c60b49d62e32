/**
 * @file
 * Interconnection-network topologies and deadlock-free minimal routing.
 *
 * The paper's target machines use three topologies (Section 5): a fully
 * connected network, a binary hypercube, and a 2-D mesh, all with serial
 * unidirectional links.  Routing is dimension-ordered (e-cube on the cube,
 * XY on the mesh), which makes the incremental circuit acquisition in
 * DetailedNetwork deadlock-free.
 */

#ifndef ABSIM_NET_TOPOLOGY_HH
#define ABSIM_NET_TOPOLOGY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace absim::net {

/** Node index within a machine. */
using NodeId = std::uint32_t;

/** Dense index of a unidirectional link. */
using LinkId = std::uint32_t;

/** The three network topologies evaluated in the paper. */
enum class TopologyKind
{
    Full,      ///< Fully connected: a link in each direction per pair.
    Hypercube, ///< Binary hypercube, one link per direction per edge.
    Mesh2D,    ///< 2-D mesh, Intel Touchstone Delta style.
};

/** Each TopologyKind's name, indexed by enumerator: what toString()
 *  prints and what the run settings parse. */
inline constexpr std::array<std::string_view, 3> kTopologyNames = {
    "full", "cube", "mesh"};

/** The topology's name from kTopologyNames. */
std::string toString(TopologyKind kind);

/**
 * Abstract topology: a set of unidirectional links plus a minimal,
 * deterministic, deadlock-free route between any two distinct nodes.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Number of processing nodes. */
    NodeId nodes() const { return nodes_; }

    /** Number of unidirectional links (dense LinkId space). */
    virtual std::uint32_t linkCount() const = 0;

    /**
     * Append the ordered list of links a message from @p src to @p dst
     * traverses.  @p src and @p dst must be distinct.
     */
    virtual void route(NodeId src, NodeId dst,
                       std::vector<LinkId> &out) const = 0;

    /** Hop count of the minimal route. */
    virtual std::uint32_t hops(NodeId src, NodeId dst) const = 0;

    /** The (from, to) nodes of unidirectional link @p link. */
    virtual std::pair<NodeId, NodeId> linkEndpoints(LinkId link) const = 0;

    /**
     * Number of unidirectional links crossing the network bisection,
     * counting both directions; this is what the paper's g computation
     * divides the aggregate bandwidth over.
     */
    virtual std::uint32_t bisectionLinks() const = 0;

    /** Factory. @p p must be a power of two (paper restriction). */
    static std::unique_ptr<Topology> make(TopologyKind kind, NodeId p);

  protected:
    explicit Topology(NodeId nodes) : nodes_(nodes) {}

    NodeId nodes_;
};

/** Fully connected network: dedicated link per ordered (src, dst) pair. */
class FullTopology : public Topology
{
  public:
    explicit FullTopology(NodeId p);

    std::uint32_t linkCount() const override;
    void route(NodeId src, NodeId dst,
               std::vector<LinkId> &out) const override;
    std::uint32_t hops(NodeId src, NodeId dst) const override;
    std::pair<NodeId, NodeId> linkEndpoints(LinkId link) const override;
    std::uint32_t bisectionLinks() const override;
};

/** Binary hypercube with e-cube (dimension-ordered) routing. */
class HypercubeTopology : public Topology
{
  public:
    explicit HypercubeTopology(NodeId p);

    std::uint32_t linkCount() const override;
    void route(NodeId src, NodeId dst,
               std::vector<LinkId> &out) const override;
    std::uint32_t hops(NodeId src, NodeId dst) const override;
    std::pair<NodeId, NodeId> linkEndpoints(LinkId link) const override;
    std::uint32_t bisectionLinks() const override;

    std::uint32_t dimensions() const { return dims_; }

  private:
    LinkId linkFor(NodeId from, std::uint32_t dim) const;

    std::uint32_t dims_;
};

/**
 * 2-D mesh.  Equal rows and columns when P is an even power of two;
 * otherwise columns = 2 x rows (paper Section 5).  XY routing: correct the
 * column first, then the row.
 */
class MeshTopology : public Topology
{
  public:
    explicit MeshTopology(NodeId p);

    std::uint32_t linkCount() const override;
    void route(NodeId src, NodeId dst,
               std::vector<LinkId> &out) const override;
    std::uint32_t hops(NodeId src, NodeId dst) const override;
    std::pair<NodeId, NodeId> linkEndpoints(LinkId link) const override;
    std::uint32_t bisectionLinks() const override;

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }

    /** Compute the mesh shape the paper prescribes for @p p nodes. */
    static void shapeFor(NodeId p, std::uint32_t &rows, std::uint32_t &cols);

  private:
    // Per-node link slots: 0=east, 1=west, 2=south, 3=north.  Nonexistent
    // edge links waste an id, keeping the id computation branch-free.
    LinkId linkFor(NodeId from, std::uint32_t dir) const;

    std::uint32_t rows_;
    std::uint32_t cols_;
};

} // namespace absim::net

#endif // ABSIM_NET_TOPOLOGY_HH
