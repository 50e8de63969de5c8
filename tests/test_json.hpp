#pragma once

// JSON reading for test assertions on the files and responses the
// tools emit (metrics registry dumps, Perfetto traces, protocol
// lines): runtime::json::parse does the parsing, and JsonValue adds
// throwing accessors so a missing key or a mistyped value fails the
// test with a usable message.

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/json.hpp"

namespace orianna::test {

class JsonValue;
using JsonPtr = std::shared_ptr<JsonValue>;

class JsonValue
{
  public:
    using Kind = runtime::json::Value::Kind;

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonPtr> items;
    std::map<std::string, JsonPtr> fields;

    bool isNull() const { return kind == Kind::Null; }

    double
    asNumber() const
    {
        if (kind != Kind::Number)
            throw std::runtime_error("json: not a number");
        return number;
    }

    const std::string &
    asString() const
    {
        if (kind != Kind::String)
            throw std::runtime_error("json: not a string");
        return text;
    }

    const std::vector<JsonPtr> &
    asArray() const
    {
        if (kind != Kind::Array)
            throw std::runtime_error("json: not an array");
        return items;
    }

    const std::map<std::string, JsonPtr> &
    asObject() const
    {
        if (kind != Kind::Object)
            throw std::runtime_error("json: not an object");
        return fields;
    }

    bool
    has(const std::string &key) const
    {
        return asObject().count(key) != 0;
    }

    /** Member access; throws when the key is absent. */
    const JsonValue &
    at(const std::string &key) const
    {
        const auto &object = asObject();
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("json: missing key \"" + key +
                                     "\"");
        return *it->second;
    }
};

/** The runtime parser's tree, as JsonValues. */
inline JsonPtr
adopt(const runtime::json::Value &value)
{
    auto out = std::make_shared<JsonValue>();
    out->kind = value.kind;
    out->boolean = value.boolean;
    out->number = value.number;
    out->text = value.text;
    for (const runtime::json::ValuePtr &item : value.items)
        out->items.push_back(adopt(*item));
    for (const auto &[key, field] : value.fields)
        out->fields.emplace(key, adopt(*field));
    return out;
}

/** @throws std::runtime_error with a byte offset on malformed input. */
inline JsonPtr
parseJson(const std::string &input)
{
    return adopt(*runtime::json::parse(input));
}

// --- Shared helpers for JSON-consuming tests ------------------------
//
// Everything below is gtest-free (throws on failure, which any test
// framework reports with the message) so the header stays usable from
// helper code outside TEST bodies.

/** Whole file as a string; throws when unreadable. */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Parse the JSON document stored at @p path. */
inline JsonPtr
parseJsonFile(const std::string &path)
{
    try {
        return parseJson(slurp(path));
    } catch (const std::exception &error) {
        throw std::runtime_error(path + ": " + error.what());
    }
}

/**
 * A counter from a metrics-registry export (Engine::metricsJson() or
 * a --metrics file): root.counters[name]. Throws when absent, so a
 * renamed counter fails loudly instead of comparing against 0.
 */
inline double
counterValue(const JsonValue &root, const std::string &name)
{
    return root.at("counters").at(name).asNumber();
}

/**
 * A numeric field of a healthJson()/protocol response object; same
 * loud-failure contract as counterValue().
 */
inline double
numberField(const JsonValue &root, const std::string &name)
{
    return root.at(name).asNumber();
}

} // namespace orianna::test
