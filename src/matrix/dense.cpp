#include "matrix/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "matrix/kernels.hpp"
#include "matrix/mac_counter.hpp"

namespace orianna::mat {

namespace {

void
requireSameSize(std::size_t a, std::size_t b, const char *what)
{
    if (a != b)
        throw std::invalid_argument(std::string(what) + ": size mismatch");
}

} // namespace

template <typename T>
void
VectorT<T>::fill(T value)
{
    std::fill(data_.begin(), data_.end(), value);
}

template <typename T>
void
VectorT<T>::addInto(const VectorT &other, VectorT &out) const
{
    requireSameSize(size(), other.size(), "Vector::operator+");
    out.resize(size());
    for (std::size_t i = 0; i < size(); ++i)
        out[i] = data_[i] + other[i];
}

template <typename T>
void
VectorT<T>::subtractInto(const VectorT &other, VectorT &out) const
{
    requireSameSize(size(), other.size(), "Vector::operator-");
    out.resize(size());
    for (std::size_t i = 0; i < size(); ++i)
        out[i] = data_[i] - other[i];
}

template <typename T>
void
VectorT<T>::negateInto(VectorT &out) const
{
    out.resize(size());
    for (std::size_t i = 0; i < size(); ++i)
        out[i] = -data_[i];
}

template <typename T>
void
VectorT<T>::scaleInto(T scale, VectorT &out) const
{
    out.resize(size());
    for (std::size_t i = 0; i < size(); ++i)
        out[i] = data_[i] * scale;
    MacCounter::add(size());
}

template <typename T>
VectorT<T>
VectorT<T>::operator+(const VectorT &other) const
{
    VectorT out(size());
    addInto(other, out);
    return out;
}

template <typename T>
VectorT<T>
VectorT<T>::operator-(const VectorT &other) const
{
    VectorT out(size());
    subtractInto(other, out);
    return out;
}

template <typename T>
VectorT<T>
VectorT<T>::operator-() const
{
    VectorT out(size());
    negateInto(out);
    return out;
}

template <typename T>
VectorT<T>
VectorT<T>::operator*(T scale) const
{
    VectorT out(size());
    scaleInto(scale, out);
    return out;
}

template <typename T>
VectorT<T> &
VectorT<T>::operator+=(const VectorT &other)
{
    requireSameSize(size(), other.size(), "Vector::operator+=");
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] += other[i];
    return *this;
}

template <typename T>
VectorT<T> &
VectorT<T>::operator-=(const VectorT &other)
{
    requireSameSize(size(), other.size(), "Vector::operator-=");
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] -= other[i];
    return *this;
}

template <typename T>
T
VectorT<T>::dot(const VectorT &other) const
{
    requireSameSize(size(), other.size(), "Vector::dot");
    const T acc =
        kernels::dot(data_.data(), other.data_.data(), size());
    MacCounter::add(size());
    return acc;
}

template <typename T>
T
VectorT<T>::norm() const
{
    return std::sqrt(dot(*this));
}

template <typename T>
T
VectorT<T>::maxAbs() const
{
    T best = T(0);
    for (T v : data_)
        best = std::max(best, std::abs(v));
    return best;
}

template <typename T>
VectorT<T>
VectorT<T>::segment(std::size_t start, std::size_t len) const
{
    if (start + len > size())
        throw std::out_of_range("Vector::segment: out of range");
    VectorT out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = data_[start + i];
    return out;
}

template <typename T>
void
VectorT<T>::setSegment(std::size_t start, const VectorT &value)
{
    if (start + value.size() > size())
        throw std::out_of_range("Vector::setSegment: out of range");
    for (std::size_t i = 0; i < value.size(); ++i)
        data_[start + i] = value[i];
}

template <typename T>
VectorT<T>
VectorT<T>::concat(const VectorT &other) const
{
    VectorT out(size() + other.size());
    for (std::size_t i = 0; i < size(); ++i)
        out[i] = data_[i];
    for (std::size_t i = 0; i < other.size(); ++i)
        out[size() + i] = other[i];
    return out;
}

template <typename T>
MatrixT<T>
VectorT<T>::asColumn() const
{
    MatrixT<T> out(size(), 1);
    for (std::size_t i = 0; i < size(); ++i)
        out(i, 0) = data_[i];
    return out;
}

template <typename T>
std::string
VectorT<T>::str() const
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < size(); ++i)
        os << (i ? ", " : "") << data_[i];
    os << "]";
    return os.str();
}

template <typename T>
MatrixT<T>::MatrixT(std::initializer_list<std::initializer_list<T>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &r : rows) {
        if (r.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

template <typename T>
MatrixT<T>
MatrixT<T>::identity(std::size_t n)
{
    MatrixT out(n, n);
    for (std::size_t i = 0; i < n; ++i)
        out(i, i) = T(1);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::zero(std::size_t rows, std::size_t cols)
{
    return MatrixT(rows, cols);
}

template <typename T>
MatrixT<T>
MatrixT<T>::diagonal(const VectorT<T> &diag)
{
    MatrixT out(diag.size(), diag.size());
    for (std::size_t i = 0; i < diag.size(); ++i)
        out(i, i) = diag[i];
    return out;
}

template <typename T>
void
MatrixT<T>::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

template <typename T>
void
MatrixT<T>::fill(T value)
{
    std::fill(data_.begin(), data_.end(), value);
}

template <typename T>
void
MatrixT<T>::addInto(const MatrixT &other, MatrixT &out) const
{
    requireSameSize(rows_, other.rows_, "Matrix::operator+ rows");
    requireSameSize(cols_, other.cols_, "Matrix::operator+ cols");
    out.resize(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + other.data_[i];
}

template <typename T>
void
MatrixT<T>::subtractInto(const MatrixT &other, MatrixT &out) const
{
    requireSameSize(rows_, other.rows_, "Matrix::operator- rows");
    requireSameSize(cols_, other.cols_, "Matrix::operator- cols");
    out.resize(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - other.data_[i];
}

template <typename T>
void
MatrixT<T>::negateInto(MatrixT &out) const
{
    out.resize(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = -data_[i];
}

template <typename T>
void
MatrixT<T>::scaleInto(T scale, MatrixT &out) const
{
    out.resize(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * scale;
    MacCounter::add(data_.size());
}

template <typename T>
void
MatrixT<T>::multiplyInto(const MatrixT &other, MatrixT &out) const
{
    requireSameSize(cols_, other.rows_, "Matrix::operator* inner");
    // gemm accumulates: c += a * b on a zeroed c.
    out.rows_ = rows_;
    out.cols_ = other.cols_;
    out.data_.assign(rows_ * other.cols_, T(0));
    kernels::gemm(data_.data(), other.data_.data(), out.data_.data(),
                  rows_, cols_, other.cols_);
    MacCounter::add(rows_ * cols_ * other.cols_);
}

template <typename T>
void
MatrixT<T>::multiplyColumnInto(const VectorT<T> &column,
                               MatrixT &out) const
{
    requireSameSize(cols_, column.size(), "Matrix::operator* inner");
    out.rows_ = rows_;
    out.cols_ = 1;
    out.data_.assign(rows_, T(0));
    kernels::gemm(data_.data(), column.data().data(), out.data_.data(),
                  rows_, cols_, std::size_t{1});
    MacCounter::add(rows_ * cols_);
}

template <typename T>
void
MatrixT<T>::multiplyInto(const VectorT<T> &vec, VectorT<T> &out) const
{
    requireSameSize(cols_, vec.size(), "Matrix::operator* vector");
    // gemv writes every entry of its output.
    out.resize(rows_);
    if (rows_ > 0)
        kernels::gemv(data_.data(), vec.data().data(), &out[0], rows_,
                      cols_);
    MacCounter::add(rows_ * cols_);
}

template <typename T>
void
MatrixT<T>::transposeInto(MatrixT &out) const
{
    out.resize(cols_, rows_);
    kernels::transpose(data_.data(), out.data_.data(), rows_, cols_);
}

template <typename T>
void
MatrixT<T>::blockInto(std::size_t i0, std::size_t j0, std::size_t r,
                      std::size_t c, MatrixT &out) const
{
    if (i0 + r > rows_ || j0 + c > cols_)
        throw std::out_of_range("Matrix::block: out of range");
    out.resize(r, c);
    for (std::size_t i = 0; i < r; ++i)
        for (std::size_t j = 0; j < c; ++j)
            out(i, j) = (*this)(i0 + i, j0 + j);
}

template <typename T>
MatrixT<T>
MatrixT<T>::operator+(const MatrixT &other) const
{
    MatrixT out(rows_, cols_);
    addInto(other, out);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::operator-(const MatrixT &other) const
{
    MatrixT out(rows_, cols_);
    subtractInto(other, out);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::operator-() const
{
    MatrixT out(rows_, cols_);
    negateInto(out);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::operator*(const MatrixT &other) const
{
    MatrixT out;
    multiplyInto(other, out);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::transposeTimes(const MatrixT &other) const
{
    requireSameSize(rows_, other.rows_, "Matrix::transposeTimes inner");
    MatrixT out(cols_, other.cols_);
    kernels::gemmTransA(data_.data(), other.data_.data(),
                        out.data_.data(), rows_, cols_, other.cols_);
    MacCounter::add(cols_ * rows_ * other.cols_);
    return out;
}

template <typename T>
VectorT<T>
MatrixT<T>::transposeTimes(const VectorT<T> &vec) const
{
    requireSameSize(rows_, vec.size(), "Matrix::transposeTimes vector");
    VectorT<T> out(cols_);
    if (rows_ > 0 && cols_ > 0)
        kernels::gemvTransA(data_.data(), vec.data().data(), &out[0],
                            rows_, cols_);
    MacCounter::add(cols_ * rows_);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::timesTranspose(const MatrixT &other) const
{
    requireSameSize(cols_, other.cols_, "Matrix::timesTranspose inner");
    MatrixT out(rows_, other.rows_);
    kernels::gemmTransB(data_.data(), other.data_.data(),
                        out.data_.data(), rows_, cols_, other.rows_);
    MacCounter::add(rows_ * cols_ * other.rows_);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::operator*(T scale) const
{
    MatrixT out(rows_, cols_);
    scaleInto(scale, out);
    return out;
}

template <typename T>
VectorT<T>
MatrixT<T>::operator*(const VectorT<T> &vec) const
{
    VectorT<T> out(rows_);
    multiplyInto(vec, out);
    return out;
}

template <typename T>
MatrixT<T> &
MatrixT<T>::operator+=(const MatrixT &other)
{
    *this = *this + other;
    return *this;
}

template <typename T>
MatrixT<T>
MatrixT<T>::transpose() const
{
    MatrixT out(cols_, rows_);
    transposeInto(out);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::block(std::size_t i0, std::size_t j0, std::size_t r,
                  std::size_t c) const
{
    MatrixT out(r, c);
    blockInto(i0, j0, r, c, out);
    return out;
}

template <typename T>
void
MatrixT<T>::setBlock(std::size_t i0, std::size_t j0,
                     const MatrixT &value)
{
    if (i0 + value.rows() > rows_ || j0 + value.cols() > cols_)
        throw std::out_of_range("Matrix::setBlock: out of range");
    for (std::size_t i = 0; i < value.rows(); ++i)
        for (std::size_t j = 0; j < value.cols(); ++j)
            (*this)(i0 + i, j0 + j) = value(i, j);
}

template <typename T>
VectorT<T>
MatrixT<T>::row(std::size_t i) const
{
    VectorT<T> out(cols_);
    for (std::size_t j = 0; j < cols_; ++j)
        out[j] = (*this)(i, j);
    return out;
}

template <typename T>
VectorT<T>
MatrixT<T>::col(std::size_t j) const
{
    VectorT<T> out(rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        out[i] = (*this)(i, j);
    return out;
}

template <typename T>
T
MatrixT<T>::norm() const
{
    T acc = T(0);
    for (T v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

template <typename T>
T
MatrixT<T>::maxAbs() const
{
    T best = T(0);
    for (T v : data_)
        best = std::max(best, std::abs(v));
    return best;
}

template <typename T>
double
MatrixT<T>::density(double tol) const
{
    if (data_.empty())
        return 0.0;
    return static_cast<double>(nonZeros(tol)) /
           static_cast<double>(data_.size());
}

template <typename T>
std::size_t
MatrixT<T>::nonZeros(double tol) const
{
    std::size_t count = 0;
    for (T v : data_)
        if (std::abs(static_cast<double>(v)) > tol)
            ++count;
    return count;
}

template <typename T>
bool
MatrixT<T>::isUpperTriangular(double tol) const
{
    for (std::size_t i = 1; i < rows_; ++i)
        for (std::size_t j = 0; j < std::min(i, cols_); ++j)
            if (std::abs(static_cast<double>((*this)(i, j))) > tol)
                return false;
    return true;
}

template <typename T>
MatrixT<T>
MatrixT<T>::vstack(const MatrixT &other) const
{
    if (cols_ == 0 && rows_ == 0)
        return other;
    requireSameSize(cols_, other.cols_, "Matrix::vstack");
    MatrixT out(rows_ + other.rows_, cols_);
    out.setBlock(0, 0, *this);
    out.setBlock(rows_, 0, other);
    return out;
}

template <typename T>
MatrixT<T>
MatrixT<T>::hstack(const MatrixT &other) const
{
    if (cols_ == 0 && rows_ == 0)
        return other;
    requireSameSize(rows_, other.rows_, "Matrix::hstack");
    MatrixT out(rows_, cols_ + other.cols_);
    out.setBlock(0, 0, *this);
    out.setBlock(0, cols_, other);
    return out;
}

template <typename T>
std::string
MatrixT<T>::str() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < rows_; ++i) {
        os << (i ? "\n[" : "[");
        for (std::size_t j = 0; j < cols_; ++j)
            os << (j ? ", " : "") << (*this)(i, j);
        os << "]";
    }
    return os.str();
}

// The only two supported scalar types (DESIGN.md §12). Definitions
// stay in this translation unit so the fp64 codegen — and with it the
// golden digests — is byte-identical to the pre-template layout.
template class VectorT<double>;
template class VectorT<float>;
template class MatrixT<double>;
template class MatrixT<float>;

namespace {

template <typename T>
T
maxDifferenceImpl(const MatrixT<T> &a, const MatrixT<T> &b)
{
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    T best = T(0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            best = std::max(best, std::abs(a(i, j) - b(i, j)));
    return best;
}

template <typename T>
T
maxDifferenceImpl(const VectorT<T> &a, const VectorT<T> &b)
{
    assert(a.size() == b.size());
    T best = T(0);
    for (std::size_t i = 0; i < a.size(); ++i)
        best = std::max(best, std::abs(a[i] - b[i]));
    return best;
}

} // namespace

double
maxDifference(const Matrix &a, const Matrix &b)
{
    return maxDifferenceImpl(a, b);
}

float
maxDifference(const MatrixF &a, const MatrixF &b)
{
    return maxDifferenceImpl(a, b);
}

double
maxDifference(const Vector &a, const Vector &b)
{
    return maxDifferenceImpl(a, b);
}

float
maxDifference(const VectorF &a, const VectorF &b)
{
    return maxDifferenceImpl(a, b);
}

void
toFloat(const Vector &v, VectorF &out)
{
    out.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = static_cast<float>(v[i]);
}

void
toFloat(const Matrix &m, MatrixF &out)
{
    out.resize(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            out(i, j) = static_cast<float>(m(i, j));
}

VectorF
toFloat(const Vector &v)
{
    VectorF out(v.size());
    toFloat(v, out);
    return out;
}

MatrixF
toFloat(const Matrix &m)
{
    MatrixF out(m.rows(), m.cols());
    toFloat(m, out);
    return out;
}

Vector
toDouble(const VectorF &v)
{
    Vector out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = static_cast<double>(v[i]);
    return out;
}

Matrix
toDouble(const MatrixF &m)
{
    Matrix out(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            out(i, j) = static_cast<double>(m(i, j));
    return out;
}

} // namespace orianna::mat
