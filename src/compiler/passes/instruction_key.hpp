#pragma once

#include <cstdint>
#include <string>

#include "matrix/dense.hpp"

namespace orianna::comp::passes {

/**
 * Builder of byte-exact instruction keys for the merging passes
 * (dedup, CSE). Keys are raw bytes, so two instructions merge only
 * when every keyed field is bit-identical; hash tables over them
 * compare the full key on every hit, so equal hashes alone never
 * merge anything. One builder is reused across a pass: clear() keeps
 * the buffer's capacity, so steady-state key building allocates
 * nothing.
 */
class KeyBuilder
{
  public:
    void clear() { key_.clear(); }

    void
    pod(const void *data, std::size_t n)
    {
        key_.append(static_cast<const char *>(data), n);
    }

    template <typename T>
    void
    value(T v)
    {
        pod(&v, sizeof(v));
    }

    void
    vector(const mat::Vector &v)
    {
        value(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            value(v[i]);
    }

    void
    matrix(const mat::Matrix &m)
    {
        value(static_cast<std::uint32_t>(m.rows()));
        value(static_cast<std::uint32_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                value(m(i, j));
    }

    const std::string &key() const { return key_; }

  private:
    std::string key_;
};

} // namespace orianna::comp::passes
