#include "minicaffe/net_parser.hpp"

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/strings.hpp"

namespace mc {

namespace {

struct Token {
  enum class Kind { kIdent, kString, kNumber, kColon, kLBrace, kRBrace, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    Token t;
    t.line = line_;
    if (pos_ >= text_.size()) return t;
    const char c = text_[pos_];
    if (c == ':') {
      ++pos_;
      t.kind = Token::Kind::kColon;
      t.text.push_back(c);
    } else if (c == '{') {
      ++pos_;
      t.kind = Token::Kind::kLBrace;
      t.text.push_back(c);
    } else if (c == '}') {
      ++pos_;
      t.kind = Token::Kind::kRBrace;
      t.text.push_back(c);
    } else if (c == '"') {
      ++pos_;
      t.kind = Token::Kind::kString;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        fail_if(text_[pos_] == '\n', "unterminated string");
        t.text.push_back(text_[pos_++]);
      }
      fail_if(pos_ >= text_.size(), "unterminated string");
      ++pos_;  // closing quote
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
               c == '+' || c == '.') {
      t.kind = Token::Kind::kNumber;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == '-' || text_[pos_] == '+')) {
        t.text.push_back(text_[pos_++]);
      }
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      t.kind = Token::Kind::kIdent;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        t.text.push_back(text_[pos_++]);
      }
    } else {
      fail("unexpected character '" + std::string(1, c) + "'");
    }
    return t;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw glp::InvalidArgument("net parse error at line " +
                               std::to_string(line_) + ": " + what);
  }
  void fail_if(bool cond, const std::string& what) const {
    if (cond) fail(what);
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) { advance(); }


  NetSpec parse() {
    NetSpec spec;
    while (cur_.kind != Token::Kind::kEnd) {
      const std::string key = expect_ident();
      if (key == "name") {
        expect(Token::Kind::kColon);
        spec.name = expect_value();
      } else if (key == "layer") {
        expect(Token::Kind::kLBrace);
        spec.layers.push_back(parse_layer());
      } else {
        fail("unknown top-level key '" + key + "'");
      }
    }
    return spec;
  }

 private:
  LayerSpec parse_layer() {
    LayerSpec l;
    while (cur_.kind != Token::Kind::kRBrace) {
      if (cur_.kind == Token::Kind::kEnd) fail("unterminated layer block");
      const std::string key = expect_ident();
      if (key == "weight_filler" || key == "bias_filler") {
        expect(Token::Kind::kLBrace);
        FillerSpec filler = parse_filler();
        if (key == "weight_filler") {
          l.params.weight_filler = filler;
        } else {
          l.params.bias_filler = filler;
        }
        continue;
      }
      expect(Token::Kind::kColon);
      const std::string value = expect_value();
      apply_layer_field(l, key, value);
    }
    advance();  // consume '}'
    if (l.type.empty()) fail("layer missing 'type'");
    return l;
  }

  FillerSpec parse_filler() {
    FillerSpec f;
    while (cur_.kind != Token::Kind::kRBrace) {
      if (cur_.kind == Token::Kind::kEnd) fail("unterminated filler block");
      const std::string key = expect_ident();
      expect(Token::Kind::kColon);
      const std::string value = expect_value();
      if (key == "type") {
        if (value == "constant") {
          f.kind = FillerSpec::Kind::kConstant;
        } else if (value == "uniform") {
          f.kind = FillerSpec::Kind::kUniform;
        } else if (value == "gaussian") {
          f.kind = FillerSpec::Kind::kGaussian;
        } else if (value == "xavier") {
          f.kind = FillerSpec::Kind::kXavier;
        } else {
          fail("unknown filler type '" + value + "'");
        }
      } else if (key == "value") {
        f.value = to_float(value);
      } else if (key == "std") {
        f.std = to_float(value);
      } else if (key == "mean") {
        f.mean = to_float(value);
      } else if (key == "min") {
        f.min = to_float(value);
      } else if (key == "max") {
        f.max = to_float(value);
      } else {
        fail("unknown filler key '" + key + "'");
      }
    }
    advance();  // consume '}'
    return f;
  }

  void apply_layer_field(LayerSpec& l, const std::string& key,
                         const std::string& value) {
    LayerParams& p = l.params;
    if (key == "name") {
      l.name = value;
    } else if (key == "type") {
      l.type = value;
    } else if (key == "bottom") {
      l.bottoms.push_back(value);
    } else if (key == "top") {
      l.tops.push_back(value);
    } else if (key == "param_name") {
      l.param_names.push_back(value);
    } else if (key == "num_output") {
      p.num_output = to_int(value);
    } else if (key == "kernel_size") {
      p.kernel_size = to_int(value);
    } else if (key == "stride") {
      p.stride = to_int(value);
    } else if (key == "pad") {
      p.pad = to_int(value);
    } else if (key == "group") {
      p.group = to_int(value);
    } else if (key == "bias_term") {
      p.bias_term = to_bool(value);
    } else if (key == "pool") {
      if (value == "MAX") {
        p.pool = PoolMethod::kMax;
      } else if (value == "AVE") {
        p.pool = PoolMethod::kAve;
      } else {
        fail("unknown pool method '" + value + "'");
      }
    } else if (key == "local_size") {
      p.local_size = to_int(value);
    } else if (key == "alpha") {
      p.alpha = to_float(value);
    } else if (key == "beta") {
      p.beta = to_float(value);
    } else if (key == "k") {
      p.k = to_float(value);
    } else if (key == "negative_slope") {
      p.negative_slope = to_float(value);
    } else if (key == "dropout_ratio") {
      p.dropout_ratio = to_float(value);
    } else if (key == "loss_weight") {
      p.loss_weight = to_float(value);
    } else if (key == "margin") {
      p.margin = to_float(value);
    } else if (key == "axis") {
      p.axis = to_int(value);
    } else if (key == "slice_point") {
      p.slice_points.push_back(to_int(value));
    } else if (key == "operation") {
      if (value == "SUM") {
        p.eltwise = EltwiseOp::kSum;
      } else if (value == "PROD") {
        p.eltwise = EltwiseOp::kProd;
      } else if (value == "MAX") {
        p.eltwise = EltwiseOp::kMax;
      } else {
        fail("unknown eltwise operation '" + value + "'");
      }
    } else if (key == "coeff") {
      p.eltwise_coeffs.push_back(to_float(value));
    } else if (key == "power") {
      p.power = to_float(value);
    } else if (key == "power_scale") {
      p.power_scale = to_float(value);
    } else if (key == "power_shift") {
      p.power_shift = to_float(value);
    } else if (key == "eps") {
      p.bn_eps = to_float(value);
    } else if (key == "moving_average_fraction") {
      p.bn_momentum = to_float(value);
    } else if (key == "use_global_stats") {
      p.use_global_stats = to_bool(value);
    } else if (key == "scale_bias_term") {
      p.scale_bias_term = to_bool(value);
    } else if (key == "reduction_mean") {
      p.reduction_mean = to_bool(value);
    } else if (key == "batch_size") {
      p.batch_size = to_int(value);
    } else if (key == "pair_data") {
      p.pair_data = to_bool(value);
    } else if (key == "shuffle") {
      p.dataset.shuffle = to_bool(value);
    } else if (key == "dataset") {
      if (value == "mnist") {
        p.dataset = DatasetSpec::mnist();
      } else if (value == "cifar10") {
        p.dataset = DatasetSpec::cifar10();
      } else if (value == "imagenet") {
        p.dataset = DatasetSpec::imagenet();
      } else if (value == "imagenet227") {
        p.dataset = DatasetSpec::imagenet_crop227();
      } else {
        // Custom dataset: defaults, refined by the dataset_* keys below.
        p.dataset = DatasetSpec{};
        p.dataset.name = value;
      }
    } else if (key == "dataset_channels") {
      p.dataset.channels = to_int(value);
    } else if (key == "dataset_height") {
      p.dataset.height = to_int(value);
    } else if (key == "dataset_width") {
      p.dataset.width = to_int(value);
    } else if (key == "dataset_classes") {
      p.dataset.num_classes = to_int(value);
    } else {
      fail("unknown layer key '" + key + "'");
    }
  }

  // --- token helpers -------------------------------------------------------
  [[noreturn]] void fail(const std::string& what) const {
    throw glp::InvalidArgument("net parse error at line " +
                               std::to_string(last_line_) + ": " + what);
  }

  void advance() {
    // Errors are reported at the line of the last *consumed* token, which
    // is the construct being processed (the lexer has usually moved on).
    if (cur_.line > 0) last_line_ = cur_.line;
    cur_ = lexer_.next();
  }

  void expect(Token::Kind kind) {
    if (cur_.kind != kind) fail("unexpected token '" + cur_.text + "'");
    advance();
  }

  std::string expect_ident() {
    if (cur_.kind != Token::Kind::kIdent) {
      fail("expected identifier, got '" + cur_.text + "'");
    }
    std::string s = cur_.text;
    advance();
    return s;
  }

  std::string expect_value() {
    if (cur_.kind != Token::Kind::kString && cur_.kind != Token::Kind::kNumber &&
        cur_.kind != Token::Kind::kIdent) {
      fail("expected a value, got '" + cur_.text + "'");
    }
    std::string s = cur_.text;
    advance();
    return s;
  }

  int to_int(const std::string& s) {
    try {
      return std::stoi(s);
    } catch (const std::exception&) {
      fail("expected integer, got '" + s + "'");
    }
  }
  float to_float(const std::string& s) {
    try {
      return std::stof(s);
    } catch (const std::exception&) {
      fail("expected number, got '" + s + "'");
    }
  }
  bool to_bool(const std::string& s) {
    if (s == "true" || s == "1") return true;
    if (s == "false" || s == "0") return false;
    fail("expected boolean, got '" + s + "'");
  }

  Lexer lexer_;
  Token cur_;
  int last_line_ = 1;
};

}  // namespace

NetSpec parse_net_text(const std::string& text) { return Parser(text).parse(); }

NetSpec parse_net_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw glp::InvalidArgument("cannot open net file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_net_text(ss.str());
}

namespace {
void write_filler(std::ostringstream& os, const char* key, const FillerSpec& f) {
  os << "  " << key << " { type: \"";
  switch (f.kind) {
    case FillerSpec::Kind::kConstant:
      os << "constant\" value: " << f.value;
      break;
    case FillerSpec::Kind::kUniform:
      os << "uniform\" min: " << f.min << " max: " << f.max;
      break;
    case FillerSpec::Kind::kGaussian:
      os << "gaussian\" std: " << f.std << " mean: " << f.mean;
      break;
    case FillerSpec::Kind::kXavier:
      os << "xavier\"";
      break;
  }
  os << " }\n";
}
}  // namespace

std::string net_to_text(const NetSpec& spec) {
  std::ostringstream os;
  os << "name: \"" << spec.name << "\"\n";
  const LayerParams defaults;
  for (const LayerSpec& l : spec.layers) {
    os << "layer {\n";
    os << "  name: \"" << l.name << "\"\n";
    os << "  type: \"" << l.type << "\"\n";
    for (const std::string& b : l.bottoms) os << "  bottom: \"" << b << "\"\n";
    for (const std::string& t : l.tops) os << "  top: \"" << t << "\"\n";
    for (const std::string& p : l.param_names) {
      os << "  param_name: \"" << p << "\"\n";
    }
    const LayerParams& p = l.params;
    if (p.num_output != defaults.num_output) os << "  num_output: " << p.num_output << "\n";
    if (p.kernel_size != defaults.kernel_size) os << "  kernel_size: " << p.kernel_size << "\n";
    if (p.stride != defaults.stride) os << "  stride: " << p.stride << "\n";
    if (p.pad != defaults.pad) os << "  pad: " << p.pad << "\n";
    if (l.type == "Pooling") {
      os << "  pool: " << (p.pool == PoolMethod::kMax ? "MAX" : "AVE") << "\n";
    }
    if (l.type == "Data") {
      os << "  dataset: \"" << p.dataset.name << "\"\n";
      os << "  dataset_channels: " << p.dataset.channels << "\n";
      os << "  dataset_height: " << p.dataset.height << "\n";
      os << "  dataset_width: " << p.dataset.width << "\n";
      os << "  dataset_classes: " << p.dataset.num_classes << "\n";
      os << "  batch_size: " << p.batch_size << "\n";
      if (p.pair_data) os << "  pair_data: true\n";
      if (p.dataset.shuffle) os << "  shuffle: true\n";
    }
    if (l.type == "Convolution" || l.type == "Deconvolution" ||
        l.type == "InnerProduct") {
      write_filler(os, "weight_filler", p.weight_filler);
      write_filler(os, "bias_filler", p.bias_filler);
      if (!p.bias_term) os << "  bias_term: false\n";
    }
    if (l.type == "LRN") {
      os << "  local_size: " << p.local_size << "\n  alpha: " << p.alpha
         << "\n  beta: " << p.beta << "\n  k: " << p.k << "\n";
    }
    if (l.type == "ReLU" && p.negative_slope != defaults.negative_slope) {
      os << "  negative_slope: " << p.negative_slope << "\n";
    }
    if (l.type == "ContrastiveLoss") os << "  margin: " << p.margin << "\n";
    if (p.loss_weight != defaults.loss_weight) {
      os << "  loss_weight: " << p.loss_weight << "\n";
    }
    if (p.dropout_ratio != defaults.dropout_ratio && l.type == "Dropout") {
      os << "  dropout_ratio: " << p.dropout_ratio << "\n";
    }
    if (p.group != defaults.group) os << "  group: " << p.group << "\n";
    if (l.type == "Eltwise") {
      const char* op = p.eltwise == EltwiseOp::kSum
                           ? "SUM"
                           : (p.eltwise == EltwiseOp::kProd ? "PROD" : "MAX");
      os << "  operation: " << op << "\n";
      for (float c : p.eltwise_coeffs) os << "  coeff: " << c << "\n";
    }
    for (int sp : p.slice_points) os << "  slice_point: " << sp << "\n";
    if (l.type == "Power") {
      os << "  power: " << p.power << "\n  power_scale: " << p.power_scale
         << "\n  power_shift: " << p.power_shift << "\n";
    }
    if (l.type == "BatchNorm") {
      os << "  eps: " << p.bn_eps << "\n";
      if (p.use_global_stats) os << "  use_global_stats: true\n";
    }
    if (l.type == "Scale" && p.scale_bias_term) os << "  scale_bias_term: true\n";
    if (l.type == "Reduction" && p.reduction_mean) os << "  reduction_mean: true\n";
    os << "}\n";
  }
  return os.str();
}

}  // namespace mc
