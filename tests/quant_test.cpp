// quant_test — conformance suite for the quantized factor payloads
// (fp32/fp16/int8) of the versioned CPRARCH1 archive.
//
// The contract under test, per quantization mode:
//   fp64  save→reload is lossless: predictions bitwise-equal the original
//         model and a re-save reproduces the archive byte for byte.
//   fp32  the encoding is idempotent: a second save→reload round trip is
//         bitwise-stable, and predictions stay within a tight relative
//         tolerance of the fp64 original.
//   fp16/int8  predictions stay within a pinned per-mode (and, where a
//         family is structurally sensitive, per-family) relative tolerance.
// Every registered family must hold the contract — the loaders are supposed
// to be completely transparent to the encoding.
//
// The golden-bytes tests pin the on-disk block encodings themselves, so an
// accidental format change fails here before it bricks saved archives.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/model_registry.hpp"
#include "core/cpr_model.hpp"
#include "core/model_file.hpp"
#include "grid/discretization.hpp"
#include "linalg/matrix.hpp"
#include "test_data.hpp"
#include "util/check.hpp"
#include "util/quantize.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace cpr {
namespace {

using common::Dataset;
using common::ModelRegistry;
using testdata::sample_power_law;
using testdata::temp_path;
using testdata::zoo_spec;

constexpr QuantMode kAllModes[] = {QuantMode::F64, QuantMode::F32, QuantMode::F16,
                                   QuantMode::I8};

/// Relative prediction error |quantized - original| / max(|original|, eps).
double rel_error(double quantized, double original) {
  const double scale = std::max(std::abs(original), 1e-300);
  return std::abs(quantized - original) / scale;
}

/// Pinned tolerance on the relative prediction error per mode. The values
/// are deliberate over-measurement headroom (~4x the observed maximum over
/// all families on the fixture), not tuned-to-pass: loosening them is a
/// format regression. GP gets per-family overrides — its predictions run
/// quantized support coordinates through the kernel distance, which
/// amplifies per-element error far more than a linear read-out does.
double mode_tolerance(QuantMode mode, const std::string& family) {
  switch (mode) {
    case QuantMode::F64:
      return 0.0;
    case QuantMode::F32:
      return 1e-5;  // observed max 1.7e-6 (gp)
    case QuantMode::F16:
      // observed max 2.4e-3 over the linear-readout families, 3.1e-2 for gp
      return family == "gp" ? 0.12 : 1e-2;
    case QuantMode::I8:
      // observed max 3.9e-2 over the linear-readout families, 0.59 for gp
      return family == "gp" ? 2.0 : 0.15;
  }
  return 0.0;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- all-family save→reload→predict conformance ---------------------------

TEST(QuantArchive, EveryFamilyRoundTripsUnderEveryMode) {
  const Dataset train = sample_power_law(512, 1);
  const Dataset probe = sample_power_law(48, 2);
  for (const auto& family : ModelRegistry::instance().family_names()) {
    SCOPED_TRACE("family " + family);
    auto model = ModelRegistry::instance().create(family, zoo_spec(family));
    ASSERT_NE(model, nullptr);
    model->fit(train);
    for (const QuantMode mode : kAllModes) {
      const std::string mode_name = util::quant_mode_name(mode);
      SCOPED_TRACE("mode " + mode_name);
      const auto path = temp_path("cpr_quant_" + family + "_" + mode_name + ".cprm");
      core::save_model_file(*model, path, mode);
      // The declared archive size is the real file size, for every mode.
      EXPECT_EQ(core::model_archive_bytes(*model, mode),
                std::filesystem::file_size(path));
      const auto loaded = core::load_model_file(path);
      ASSERT_NE(loaded, nullptr);
      EXPECT_EQ(loaded->type_tag(), model->type_tag());
      EXPECT_EQ(loaded->archive_quant_mode(), mode);
      const double tolerance = mode_tolerance(mode, family);
      double max_rel = 0.0;
      for (std::size_t i = 0; i < probe.size(); ++i) {
        const double original = model->predict(probe.config(i));
        const double quantized = loaded->predict(probe.config(i));
        if (mode == QuantMode::F64) {
          EXPECT_DOUBLE_EQ(quantized, original) << "probe row " << i;
        } else {
          max_rel = std::max(max_rel, rel_error(quantized, original));
        }
      }
      if (getenv("CPR_QUANT_DEBUG")) printf("DBG %s %s %.3g\n", family.c_str(), mode_name.c_str(), max_rel);
      EXPECT_LE(max_rel, tolerance) << "max relative prediction error";
      if (mode == QuantMode::F64) {
        // Lossless mode must also reproduce the archive byte for byte.
        const auto resaved = temp_path("cpr_quant_" + family + "_resave.cprm");
        core::save_model_file(*loaded, resaved, QuantMode::F64);
        EXPECT_EQ(file_bytes(resaved), file_bytes(path));
        std::filesystem::remove(resaved);
      } else {
        // Lossy encodings are idempotent: a second round trip through the
        // same mode changes nothing (bitwise-equal predictions).
        const auto again = temp_path("cpr_quant_" + family + "_gen2.cprm");
        core::save_model_file(*loaded, again, mode);
        const auto reloaded = core::load_model_file(again);
        for (std::size_t i = 0; i < probe.size(); ++i) {
          EXPECT_DOUBLE_EQ(reloaded->predict(probe.config(i)),
                           loaded->predict(probe.config(i)))
              << "second-generation probe row " << i;
        }
        std::filesystem::remove(again);
      }
      std::filesystem::remove(path);
    }
  }
}

// --- the fp32 dequantize-free predict path --------------------------------

// A CPR model reloaded from an fp32 archive predicts through float factor
// tiles; the bitwise invariant between the vectorized batch kernel and
// scalar predict() must survive that storage switch, row for row.
TEST(QuantArchive, Fp32CprBatchStaysBitwiseEqualToPredict) {
  const Dataset train = sample_power_law(512, 3);
  auto model = ModelRegistry::instance().create("cpr", zoo_spec("cpr"));
  model->fit(train);
  const auto path = temp_path("cpr_quant_fp32_kernel.cprm");
  core::save_model_file(*model, path, QuantMode::F32);
  const auto loaded = core::load_model_file(path);
  std::filesystem::remove(path);

  const Dataset probe = sample_power_law(257, 4);
  const auto batch = loaded->predict_batch(probe.x);
  ASSERT_EQ(batch.size(), probe.size());
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(batch[i], loaded->predict(probe.config(i))) << "row " << i;
  }
}

// --- archive size: the point of the feature -------------------------------

// A rank-32 CPR model (the shape the serving fleet actually quantizes) must
// shrink by >= 3.5x under fp16 and int8 — the acceptance floor of the
// quantization issue. fp32 halving is structural, with a small fixed
// overhead for the non-matrix payload remainder.
TEST(QuantArchive, Fp16AndInt8ShrinkAtLeast3p5x) {
  std::vector<grid::ParameterSpec> specs{
      grid::ParameterSpec::numerical_log("m", 32, 4096, true),
      grid::ParameterSpec::numerical_log("n", 32, 4096, true),
      grid::ParameterSpec::numerical_log("k", 32, 4096, true)};
  core::CprOptions options;
  options.rank = 32;
  core::CprModel model(grid::Discretization(specs, 16), options);
  Rng rng(5);
  Dataset train;
  train.x = linalg::Matrix(1024, 3);
  train.y.resize(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    for (std::size_t j = 0; j < 3; ++j) train.x(i, j) = rng.log_uniform(32, 4096);
    train.y[i] = 1e-9 * train.x(i, 0) * train.x(i, 1) * train.x(i, 2);
  }
  model.fit(train);

  const double f64 = static_cast<double>(core::model_archive_bytes(model, QuantMode::F64));
  const double f32 = static_cast<double>(core::model_archive_bytes(model, QuantMode::F32));
  const double f16 = static_cast<double>(core::model_archive_bytes(model, QuantMode::F16));
  const double i8 = static_cast<double>(core::model_archive_bytes(model, QuantMode::I8));
  EXPECT_GE(f64 / f32, 1.8);
  EXPECT_GE(f64 / f16, 3.5);
  EXPECT_GE(f64 / i8, 3.5);
  EXPECT_LT(i8, f16);  // int8 must actually be the smallest encoding
}

// --- golden bytes: the on-disk block encodings ----------------------------

std::string hex_dump(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buffer[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buffer, sizeof(buffer), "%02x", b);
    out += buffer;
  }
  return out;
}

/// The fixed matrix every golden test serializes: values chosen to be exact
/// in binary16 (so the fp16 block is reproducible) with distinct per-column
/// ranges (so the int8 scale/offset math is exercised).
linalg::Matrix golden_matrix() {
  linalg::Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 1) = -2.5;
  m(0, 2) = 0.15625;
  m(1, 0) = 3.0;
  m(1, 1) = -0.75;
  m(1, 2) = 100.0;
  return m;
}

std::string serialized_hex(QuantMode mode) {
  BufferSink sink;
  sink.set_quant_mode(mode);
  golden_matrix().serialize(sink);
  return hex_dump(sink.buffer());
}

TEST(QuantGoldenBytes, PinsEveryBlockEncoding) {
  // rows=2, cols=3 as LE u64s; fp64 keeps the legacy (untagged) layout —
  // rows, cols, then write_doubles (count-prefixed raw doubles) — so
  // pre-quantization readers of v1 archives never see a format change.
  const std::string header = "0200000000000000" "0300000000000000";
  EXPECT_EQ(serialized_hex(QuantMode::F64),
            header + "0600000000000000" +
                "000000000000f03f" "00000000000004c0" "000000000000c43f"
                "0000000000000840" "000000000000e8bf" "0000000000005940");
  // Quantized blocks are tagged (no count prefix — rows*cols is the count):
  // 01 = f32 raw floats.
  EXPECT_EQ(serialized_hex(QuantMode::F32),
            header + "01" +
                "0000803f" "000020c0" "0000203e" "00004040" "000040bf" "0000c842");
  // 02 = f16 binary16 bits.
  EXPECT_EQ(serialized_hex(QuantMode::F16),
            header + "02" + "003c" "00c1" "0031" "0042" "00ba" "4056");
  // 03 = int8: per-column {f32 scale, f32 offset} then row-major codes.
  // col0 [1,3]: scale 2/254, offset 2; col1 [-2.5,-0.75]: scale 1.75/254,
  // offset -1.625; col2 [0.15625,100]: scale 99.84375/254, offset 50.078125.
  EXPECT_EQ(serialized_hex(QuantMode::I8),
            header + "03" +
                "0402013c" "00000040"   // col0 scale/offset
                "87c3e13b" "0000d0bf"   // col1
                "8542c93e" "00504842"   // col2
                "81" "81" "81"          // row 0 codes: -127, -127, -127
                "7f" "7f" "7f");        // row 1 codes: +127, +127, +127
}

TEST(QuantGoldenBytes, EmptyAndConstantBlocksStayCanonical) {
  // An all-equal column quantizes with scale 0 and decodes exactly.
  linalg::Matrix constant(2, 1);
  constant(0, 0) = 7.0;
  constant(1, 0) = 7.0;
  BufferSink sink;
  sink.set_quant_mode(QuantMode::I8);
  constant.serialize(sink);
  BufferSource source(sink.buffer());
  source.set_quant_mode(QuantMode::I8, /*quantized_framing=*/true);
  const auto back = linalg::Matrix::deserialize(source);
  EXPECT_EQ(back(0, 0), 7.0);
  EXPECT_EQ(back(1, 0), 7.0);
}

// --- newer-version archives name the version ------------------------------

// The satellite fix: a payload version from the future must be reported by
// number, not as a generic corrupt-archive failure — operators need to know
// they are holding a newer build's archive.
TEST(QuantArchive, NewerArchiveVersionIsNamedInTheError) {
  const auto path = temp_path("cpr_quant_future_version.cprm");
  {
    BufferSink body;
    body.write_string("cpr");
    body.write_u64(3);  // this build reads versions 1..2
    std::ofstream out(path, std::ios::binary);
    out.write("CPRARCH1", 8);
    const std::uint64_t size = body.buffer().size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(body.buffer().data()),
              static_cast<std::streamsize>(size));
  }
  try {
    core::load_model_file(path);
    FAIL() << "a version-3 archive must not load";
  } catch (const CheckError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("version 3"), std::string::npos) << message;
    EXPECT_NE(message.find("1..2"), std::string::npos) << message;
  }
  std::filesystem::remove(path);
}

// A version-2 archive whose quant-mode byte is out of range is rejected by
// name as well (the mode byte is the only v2 header addition).
TEST(QuantArchive, UnknownQuantModeByteIsRejected) {
  const auto path = temp_path("cpr_quant_bad_mode.cprm");
  {
    BufferSink body;
    body.write_string("cpr");
    body.write_u64(2);
    body.write_pod<std::uint8_t>(9);  // no such QuantMode
    std::ofstream out(path, std::ios::binary);
    out.write("CPRARCH1", 8);
    const std::uint64_t size = body.buffer().size();
    out.write(reinterpret_cast<const char*>(&size), sizeof(size));
    out.write(reinterpret_cast<const char*>(body.buffer().data()),
              static_cast<std::streamsize>(size));
  }
  EXPECT_THROW(core::load_model_file(path), CheckError);
  std::filesystem::remove(path);
}

// --- mode-name plumbing ---------------------------------------------------

TEST(QuantMode_, NamesRoundTripAndBadNamesThrow) {
  for (const QuantMode mode : kAllModes) {
    EXPECT_EQ(util::parse_quant_mode(util::quant_mode_name(mode)), mode);
  }
  EXPECT_THROW(util::parse_quant_mode("fp8"), CheckError);
  EXPECT_THROW(util::parse_quant_mode(""), CheckError);
}

// --- the f16 software conversion ------------------------------------------

TEST(QuantF16, ConversionIsExactOnRepresentablesAndMonotone) {
  // Exactly representable values survive the round trip bit for bit.
  for (const double v : {0.0, 1.0, -1.0, 0.5, -0.25, 2048.0, 65504.0, -65504.0,
                         std::ldexp(1.0, -14) /* smallest normal */,
                         std::ldexp(1.0, -24) /* smallest subnormal */}) {
    EXPECT_EQ(util::f16_bits_to_double(util::f16_bits_from_double(v)), v) << v;
  }
  // Round-to-nearest-even: the halfway mantissa rounds to the even side.
  EXPECT_EQ(util::f16_bits_to_double(util::f16_bits_from_double(1.0 + 1.0 / 2048.0)),
            1.0);
  EXPECT_EQ(util::f16_bits_to_double(util::f16_bits_from_double(1.0 + 3.0 / 2048.0)),
            1.0 + 2.0 / 1024.0);
  // The relative error of any normal-range conversion is at most 2^-11.
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.log_uniform(1e-4, 1e4) * (i % 2 == 0 ? 1.0 : -1.0);
    const double back = util::f16_bits_to_double(util::f16_bits_from_double(v));
    EXPECT_LE(rel_error(back, v), 1.0 / 2048.0) << v;
  }
}

}  // namespace
}  // namespace cpr
