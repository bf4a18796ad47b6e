/**
 * @file
 * Machine-readable result export, mirroring the paper artifact's
 * json-directory workflow: gaze_sim, gaze_campaign and bench_engine
 * write their results as BENCH_<name>.json documents through
 * JsonWriter/JsonExport, into $GAZE_RESULTS_DIR when it is set, so
 * the figures can be re-plotted without scraping stdout. CsvExport
 * renders the campaign report's per-suite CSV.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gaze
{

/**
 * Write @p text to @p path, replacing the file. Fatal, naming the
 * path, when it cannot be created or the write fails (a full disk
 * must never pass for a written result).
 */
void writeTextFile(const std::string &path, const std::string &text);

/** A named grid of cells rendered as CSV text. */
class CsvExport
{
  public:
    /** @param name experiment id, e.g. "fig06_main". */
    explicit CsvExport(std::string name);

    /** Set the header row. */
    void header(std::vector<std::string> columns);

    /** Append a data row (quoted/escaped as needed). */
    void row(std::vector<std::string> cells);

    /** Render as CSV text. */
    std::string toCsv() const;

    /** True when GAZE_RESULTS_DIR is configured. */
    static bool enabled();

  private:
    static std::string escape(const std::string &cell);

    std::string name;
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Incremental JSON document builder with correct string escaping and
 * strictly finite numbers (non-finite doubles become null). Usage
 * errors (value without a key inside an object, unbalanced scopes)
 * are fatal assertions, so a malformed document can never be written.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Start a "key": inside the current object. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /** Explicit null (e.g. "no trace provenance"). */
    JsonWriter &nullValue();

    /** Shorthand for key(k).value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        return key(k).value(v);
    }

    /** Finished document text (fatal if scopes are still open). */
    std::string str() const;

  private:
    enum class Scope { Object, Array };

    void separate();
    void append(const std::string &text);
    static std::string escape(const std::string &s);

    std::string out;
    std::vector<Scope> stack;
    std::vector<bool> first;   ///< no comma needed yet, per scope
    bool keyPending = false;
    bool rootUsed = false;     ///< exactly one top-level value allowed
};

/**
 * A named JSON result document destined for "BENCH_<name>.json",
 * written in $GAZE_RESULTS_DIR (or to an explicit path via writeTo,
 * which the --out flags use).
 */
class JsonExport
{
  public:
    /**
     * @param name experiment id, e.g. "gaze_sim".
     * @param json_text the finished document (JsonWriter::str()).
     */
    JsonExport(std::string name, std::string json_text);

    /** Default file name: BENCH_<name>.json. */
    std::string fileName() const;

    /**
     * Default location: $GAZE_RESULTS_DIR/BENCH_<name>.json when the
     * variable is set, BENCH_<name>.json in the cwd otherwise.
     */
    std::string defaultPath() const;

    /** Write to defaultPath(); returns it. Fatal if not writable. */
    std::string write() const;

    /** Write to an explicit path. Fatal if not writable. */
    std::string writeTo(const std::string &path) const;

  private:
    std::string name;
    std::string text;
};

} // namespace gaze
