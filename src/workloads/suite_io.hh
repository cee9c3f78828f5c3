/**
 * @file
 * Suite serialization: write the generated loop suite to a versioned
 * flat binary file and load it back bit-identically, so binaries stop
 * paying the ~7 ms `buildSuite` regeneration per process (the CMake
 * build generates the cache once; see below).
 *
 * ## File format (version 3)
 *
 * All multi-byte fields are little-endian and fixed-width; the layout
 * is a single flat sequence (mmap-friendly: no pointers, no
 * alignment holes that depend on the host). Integrity is
 * per-record: the header and index table carry their own digest, and
 * every loop record carries a digest in the index. `loadSuite`
 * verifies each digest before it parses the bytes it covers.
 *
 * ```
 * header (44 bytes):
 *   u8[8]  magic       "CVSUITE\0"
 *   u32    version     3
 *   u32    endianTag   0x01020304 (rejects foreign-endian writers)
 *   u64    seed        generator seed the suite was built from
 *   u32    loopCount
 *   u64    payloadSize bytes following the index table
 *   u64    indexFnv    4-lane interleaved FNV-1a(64) over the index
 *                      table bytes (fnvDigest4Lane, support/fnv.hh)
 * index table, per loop (16 bytes):
 *   u64    offset      record start from the payload start
 *                      (strictly increasing, [0] = 0)
 *   u64    recordFnv   same digest function over that record's bytes
 * payload, per loop:
 *   str    benchmark   (u32 length + bytes)
 *   i32    index
 *   u64    visits      (IEEE-754 bit pattern)
 *   u64    avgIters    (IEEE-754 bit pattern)
 *   u32    nodeSlots   (including tombstones)
 *   u32    edgeSlots   (including tombstones)
 *   u32    labelBytes
 *   nodeSlots x 24-byte node record = DdgNode's exact byte layout
 *     (i32 id, i32 semanticId, u32 labelOffset, u32 labelLen,
 *      u8 opClass, u8 isReplica, u8 isSpill, u8 liveOut, u8 alive,
 *      u8[3] zero padding)
 *   edgeSlots x 24-byte edge record = DdgEdge's exact byte layout
 *     (i32 id, i32 src, i32 dst, i32 distance, i32 memLatency,
 *      u8 kind, u8 alive, u8[2] zero padding)
 *   u8[labelBytes]     the graph's label arena, verbatim
 * ```
 *
 * The node/edge records ARE the in-memory PODs (static_asserts in
 * ddg/ddg.hh pin the layout): after one validation pass over the raw
 * bytes, deserialization on little-endian hosts is one bulk memcpy
 * per array plus one label-blob copy - no per-node parse loop, no
 * per-node allocation. Big-endian hosts fall back to per-field
 * assembly of the same bytes.
 *
 * Any truncation, corruption (digest mismatch), bad magic or
 * unsupported version is rejected with a `SuiteIoError` carrying a
 * clear message - never undefined behaviour. Version bumps are
 * append-only: readers reject versions they do not know (a stale v2
 * cache is rejected at open, and `loadOrBuildSuite` warns once with
 * the path and both versions before regenerating).
 *
 * ## How loadSuite reads a file
 *
 * `loadSuite` is the only reader. It maps the file read-only (POSIX
 * `mmap`), checks the header, the index digest, the offset table and
 * the payload size, then verifies each record's digest and parses it.
 * The offset table makes records independent, so large suites parse
 * on several threads straight out of the page cache. A directory, an
 * empty file or a file that cannot be mapped is a `SuiteIoError` like
 * any other bad input. The mapping lives only for the one call, so
 * the usual mmap exposure - a file truncated underneath a live
 * mapping raises SIGBUS - is limited to that one load; the
 * build-generated cache is write-once.
 *
 * ## Bit-identity contract
 *
 * `loadSuite` rebuilds each `Ddg` via `Ddg::fromSlots`, which derives
 * ids and adjacency lists exactly as an addNode/addEdge/remove*
 * replay would, so every observable `Loop` field (names, profiles,
 * node/edge arrays including tombstones and adjacency order) matches
 * `buildSuite`'s output exactly. The only exception is
 * `Ddg::generation()`, which is process-unique by design and never
 * serialized. tests/suite_io_test.cc pins the field-level round-trip.
 *
 * ## How binaries consume the cache
 *
 * The build generates `suite-42.cvsuite` in the build directory once
 * (tools/suite_cache_gen, wired as a CMake custom command) and bakes
 * that path into the library as the default. `loadOrBuildSuite()`
 * resolves, in order: the `CVLIW_SUITE_CACHE` environment variable,
 * the baked build-directory default, then `buildSuite()` generation
 * as the fallback - so test and bench binaries transparently load the
 * cache when it exists and still work from a bare checkout.
 */

#ifndef CVLIW_WORKLOADS_SUITE_IO_HH
#define CVLIW_WORKLOADS_SUITE_IO_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads/suite.hh"

namespace cvliw
{

/** Malformed, corrupted or unreadable suite cache file. */
class SuiteIoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serialize @p suite to @p path (format above).
 * @param seed the generator seed the suite was built from, recorded
 *        in the header so loaders can verify they got the suite they
 *        asked for
 * @throws SuiteIoError when the file cannot be written
 */
void saveSuite(const std::vector<Loop> &suite, const std::string &path,
               std::uint64_t seed);

/**
 * Load a suite saved by saveSuite(). Bit-identical to the generated
 * suite (see the contract above).
 * @param seed_out when non-null, receives the header's seed
 * @throws SuiteIoError on any malformed, truncated or corrupt input,
 *         and on a path that is not a mappable, non-empty regular file
 */
std::vector<Loop> loadSuite(const std::string &path,
                            std::uint64_t *seed_out = nullptr);

/**
 * The suite cache path binaries should try first: the
 * `CVLIW_SUITE_CACHE` environment variable if set, else the path
 * baked in at build time (the build-directory cache), else "".
 */
std::string defaultSuiteCachePath();

/**
 * The fast path to a suite: load `defaultSuiteCachePath()` when it
 * holds a valid cache for @p seed (~1.2 ms single-core vs ~7 ms
 * generation; multi-core loads parse records in parallel), else
 * generate with `buildSuite(seed)`. Never throws: any cache problem
 * falls back to generation.
 */
std::vector<Loop> loadOrBuildSuite(std::uint64_t seed = 42);

/**
 * The v3 *graph section* codec (the `nodeSlots` field onward in the
 * record layout above), exposed so other on-disk formats embed graphs
 * byte-compatibly with suite records - the result cache's persistent
 * tier (eval/result_cache.hh) stores each entry's `finalDdg` this
 * way. Same canonical bytes, same single-sweep validation, same
 * bit-identity contract as a full loop record.
 */
namespace suite_v3
{

/** Append the canonical v3 graph record of @p g to @p out. */
void appendGraph(std::vector<unsigned char> &out, const Ddg &g);

/**
 * Validate and materialize one v3 graph record at @p pos inside
 * [data, data+size), advancing @p pos past it. @p context names the
 * source (e.g. a file path) in error messages.
 * @throws SuiteIoError on any truncated or inconsistent record
 */
Ddg parseGraph(const unsigned char *data, std::size_t size,
               std::size_t &pos, const std::string &context);

} // namespace suite_v3

} // namespace cvliw

#endif // CVLIW_WORKLOADS_SUITE_IO_HH
