#include "harness/export.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace gaze
{
namespace
{

const char *
resultsDir()
{
    return std::getenv("GAZE_RESULTS_DIR");
}

} // namespace

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        GAZE_FATAL("cannot create '", path, "'");
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();
    if (!out)
        GAZE_FATAL("write failed on '", path, "'");
}

CsvExport::CsvExport(std::string name_)
    : name(std::move(name_))
{
}

bool
CsvExport::enabled()
{
    const char *dir = resultsDir();
    return dir != nullptr && dir[0] != '\0';
}

void
CsvExport::header(std::vector<std::string> columns)
{
    head = std::move(columns);
}

void
CsvExport::row(std::vector<std::string> cells)
{
    GAZE_ASSERT(head.empty() || cells.size() == head.size(),
                "csv row width mismatch in ", name);
    rows.push_back(std::move(cells));
}

std::string
CsvExport::escape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
CsvExport::toCsv() const
{
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i) {
            if (i)
                os << ',';
            os << escape(cells[i]);
        }
        os << '\n';
    };
    if (!head.empty())
        emit(head);
    for (const auto &r : rows)
        emit(r);
    return os.str();
}

void
JsonWriter::separate()
{
    if (stack.empty()) {
        GAZE_ASSERT(!rootUsed, "json document already has a root value");
        rootUsed = true;
    } else {
        if (stack.back() == Scope::Object) {
            GAZE_ASSERT(keyPending, "json value without a key in object");
        } else if (!keyPending) {
            if (!first.back())
                out += ',';
            first.back() = false;
        }
    }
    keyPending = false;
}

void
JsonWriter::append(const std::string &text)
{
    separate();
    out += text;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string r = "\"";
    for (char c : s) {
        switch (c) {
          case '"': r += "\\\""; break;
          case '\\': r += "\\\\"; break;
          case '\n': r += "\\n"; break;
          case '\r': r += "\\r"; break;
          case '\t': r += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                r += buf;
            } else {
                r += c;
            }
        }
    }
    r += '"';
    return r;
}

JsonWriter &
JsonWriter::beginObject()
{
    append("{");
    stack.push_back(Scope::Object);
    first.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    GAZE_ASSERT(!stack.empty() && stack.back() == Scope::Object
                    && !keyPending,
                "unbalanced json object");
    stack.pop_back();
    first.pop_back();
    out += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    append("[");
    stack.push_back(Scope::Array);
    first.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    GAZE_ASSERT(!stack.empty() && stack.back() == Scope::Array,
                "unbalanced json array");
    stack.pop_back();
    first.pop_back();
    out += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    GAZE_ASSERT(!stack.empty() && stack.back() == Scope::Object
                    && !keyPending,
                "json key outside object");
    if (!first.back())
        out += ',';
    first.back() = false;
    out += escape(k);
    out += ':';
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    append(escape(v));
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    if (!std::isfinite(v)) {
        append("null");
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    append(buf);
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    append(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    append(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    append(v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    append("null");
    return *this;
}

std::string
JsonWriter::str() const
{
    GAZE_ASSERT(stack.empty(), "json document has open scopes");
    GAZE_ASSERT(rootUsed, "json document is empty");
    return out;
}

JsonExport::JsonExport(std::string name_, std::string json_text)
    : name(std::move(name_)), text(std::move(json_text))
{
}

std::string
JsonExport::fileName() const
{
    return "BENCH_" + name + ".json";
}

std::string
JsonExport::defaultPath() const
{
    if (CsvExport::enabled())
        return std::string(resultsDir()) + "/" + fileName();
    return fileName();
}

std::string
JsonExport::write() const
{
    return writeTo(defaultPath());
}

std::string
JsonExport::writeTo(const std::string &path) const
{
    writeTextFile(path, text + '\n');
    return path;
}

} // namespace gaze
