#include "simnet/address.hpp"

#include <gtest/gtest.h>

namespace envnws::simnet {
namespace {

TEST(Ipv4, ParseAndToString) {
  const auto ip = Ipv4::parse("140.77.13.229");
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip.value().to_string(), "140.77.13.229");
}

TEST(Ipv4, ParseRejectsGarbage) {
  EXPECT_FALSE(Ipv4::parse("").ok());
  EXPECT_FALSE(Ipv4::parse("1.2.3").ok());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").ok());
  EXPECT_FALSE(Ipv4::parse("256.1.1.1").ok());
  EXPECT_FALSE(Ipv4::parse("a.b.c.d").ok());
  EXPECT_FALSE(Ipv4::parse("1..2.3").ok());
}

TEST(Ipv4, ComponentConstructor) {
  const Ipv4 ip(192, 168, 81, 50);
  EXPECT_EQ(ip.to_string(), "192.168.81.50");
}

TEST(Ipv4, AddressClasses) {
  EXPECT_EQ(Ipv4(10, 0, 0, 1).address_class(), 'A');
  EXPECT_EQ(Ipv4(140, 77, 13, 1).address_class(), 'B');
  EXPECT_EQ(Ipv4(192, 168, 254, 1).address_class(), 'C');
  EXPECT_EQ(Ipv4(224, 0, 0, 1).address_class(), 'D');
  EXPECT_EQ(Ipv4(250, 0, 0, 1).address_class(), 'E');
}

TEST(Ipv4, ClassfulNetworkGrouping) {
  // Class B -> /16.
  EXPECT_TRUE(Ipv4(140, 77, 13, 229).same_classful_network(Ipv4(140, 77, 200, 1)));
  EXPECT_FALSE(Ipv4(140, 77, 13, 229).same_classful_network(Ipv4(140, 78, 13, 229)));
  // Class C -> /24.
  EXPECT_TRUE(Ipv4(192, 168, 81, 50).same_classful_network(Ipv4(192, 168, 81, 61)));
  EXPECT_FALSE(Ipv4(192, 168, 81, 50).same_classful_network(Ipv4(192, 168, 82, 50)));
  // Class A -> /8.
  EXPECT_EQ(Ipv4(10, 1, 2, 3).classful_network().to_string(), "10.0.0.0");
}

TEST(Ipv4, Ordering) {
  EXPECT_LT(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2));
  EXPECT_EQ(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 1));
  EXPECT_NE(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2));
}

}  // namespace
}  // namespace envnws::simnet
